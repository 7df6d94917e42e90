package intermittent_test

import (
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/workloads"
)

// benchRunner times RunToHalt of the paper-size Conv2d precise build (the
// Table I build of the kernel that dominates Figures 10 and 11) on a seeded
// Wi-Fi harvest trace, one fresh device per iteration.
func benchRunner(b *testing.B, proc core.Processor) {
	k, err := workloads.ByName("Conv2d")
	if err != nil {
		b.Fatal(err)
	}
	p := k.DefaultParams()
	c, err := experiments.PreciseVariant(k, p).Compile()
	if err != nil {
		b.Fatal(err)
	}
	in := k.Inputs(p, 1)
	trace := energy.SyntheticWiFiTrace(1, energy.DefaultTraceConfig())
	cfg := core.DefaultConfig()
	cfg.Processor = proc
	var instrs, outages uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := core.NewSystem(cfg, trace)
		if err := sys.Load(c); err != nil {
			b.Fatal(err)
		}
		if err := c.InstallData(sys.Mem, in); err != nil {
			b.Fatal(err)
		}
		sys.Policy.Attach(sys.Runner)
		b.StartTimer()
		res, err := sys.Runner.RunToHalt()
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instructions
		outages += res.Outages
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instructions/op")
	b.ReportMetric(float64(outages)/float64(b.N), "outages/op")
}

// BenchmarkRunnerClank: the batched runner under Clank checkpointing.
func BenchmarkRunnerClank(b *testing.B) { benchRunner(b, core.ProcClank) }

// BenchmarkRunnerNVP: the batched runner under NVP's per-cycle backup.
func BenchmarkRunnerNVP(b *testing.B) { benchRunner(b, core.ProcNVP) }
