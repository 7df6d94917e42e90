package faultinject_test

import (
	"reflect"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/nn"
	"whatsnext/internal/workloads"
)

// TestLockstepMatchesRun is the lockstep engine's contract: for every
// corpus program — hazard-seeded and clean — under every runtime policy,
// RunLockstep produces a Report identical in every field to the naive
// one-run-per-kill-point campaign, including the exact divergence list
// (kill cycles, first differing words, values). The progress-embedded NN
// build is the one Restart stays clean on.
func TestLockstepMatchesRun(t *testing.T) {
	cases := []struct {
		name   string
		target func(t *testing.T) faultinject.Target
		sched  faultinject.Schedule
	}{
		{"repeated_input", fromFile("repeated_input.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"war_crossblock", fromFile("war_crossblock.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"commit_order", fromFile("commit_order.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"rmw_nonidem", fromFile("rmw_nonidem.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 256}},
		{"sram_cross", fromFile("sram_cross.s"), faultinject.Schedule{Exhaustive: true, MaxPoints: 128}},
		{"skim_stale_reg", fromFile("skim_stale_reg.s"), faultinject.Schedule{Exhaustive: true}},
		{"clean_accum", fromSource(cleanAccum), faultinject.Schedule{Exhaustive: true}},
		{"clean_strided", fromSource(cleanAccum), faultinject.Schedule{Points: 13}},
		{"nnconv_embed", nnConvEmbed, faultinject.Schedule{Exhaustive: true, MaxPoints: 160}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			target := tc.target(t)
			for _, rt := range []string{"clank", "nvp", "undolog", "naive", "restart"} {
				cfg := faultinject.Config{Policy: policyFactory(rt)}
				want, err := faultinject.Run(target, cfg, tc.sched)
				if err != nil {
					t.Fatalf("%s: Run: %v", rt, err)
				}
				got, err := faultinject.RunLockstep(target, cfg, tc.sched)
				if err != nil {
					t.Fatalf("%s: RunLockstep: %v", rt, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: lockstep report differs\n naive:    %+v\n lockstep: %+v", rt, want, got)
				}
			}
		})
	}
}

func fromFile(file string) func(t *testing.T) faultinject.Target {
	return func(t *testing.T) faultinject.Target {
		return faultinject.FromProgram(file, loadProgram(t, file))
	}
}

func fromSource(src string) func(t *testing.T) faultinject.Target {
	return func(t *testing.T) faultinject.Target {
		t.Helper()
		return faultinject.FromProgram("source", assemble(t, src))
	}
}

func assemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// nnConvTiny shrinks the NN convolution to a quick injection target.
var nnConvTiny = workloads.Params{ImgW: 6, ImgH: 5, K: 3}

// nnConvEmbed is a progress-embedded NN convolution: it resumes by
// rescanning its committed outputs, so it stays clean even under Restart.
func nnConvEmbed(t *testing.T) faultinject.Target {
	t.Helper()
	b, p := nn.NNConv(), nnConvTiny
	c, err := compiler.Compile(b.Build(p, 8, true), compiler.Options{Mode: compiler.ModePrecise, ProgressEmbed: true})
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.FromCompiled(b.Name, c, b.Inputs(p, 1))
}

// TestLockstepTightBudget pins the budget-line behavior: with a budget too
// small for any re-execution, both engines must report the same
// lost-forward-progress divergences.
func TestLockstepTightBudget(t *testing.T) {
	target := faultinject.FromProgram("clean_accum", assemble(t, cleanAccum))
	for _, rt := range []string{"clank", "nvp", "naive"} {
		var costs0 uint64
		{
			// Golden length: run once uninjected to size the tight budget.
			rep, err := faultinject.Run(target, faultinject.Config{Policy: policyFactory(rt)},
				faultinject.Schedule{Points: 1})
			if err != nil {
				t.Fatal(err)
			}
			costs0 = rep.GoldenCycles
		}
		cfg := faultinject.Config{Policy: policyFactory(rt), Budget: costs0 + 8}
		sched := faultinject.Schedule{Exhaustive: true, MaxPoints: 64}
		want, err := faultinject.Run(target, cfg, sched)
		if err != nil {
			t.Fatalf("%s: Run: %v", rt, err)
		}
		got, err := faultinject.RunLockstep(target, cfg, sched)
		if err != nil {
			t.Fatalf("%s: RunLockstep: %v", rt, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: tight-budget lockstep report differs\n naive:    %+v\n lockstep: %+v", rt, want, got)
		}
	}
}

// benchCampaign runs one exhaustive campaign through the given engine.
func benchCampaign(b *testing.B, engine func(faultinject.Target, faultinject.Config, faultinject.Schedule) (*faultinject.Report, error)) {
	b.Helper()
	p, err := asm.Assemble(cleanAccum)
	if err != nil {
		b.Fatal(err)
	}
	target := faultinject.FromProgram("clean_accum", p)
	cfg := faultinject.Config{Policy: policyFactory("clank")}
	sched := faultinject.Schedule{Exhaustive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine(target, cfg, sched)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("unexpected divergence: %s", rep.Divergences[0])
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Points), "kill_points")
		}
	}
}

// BenchmarkExhaustiveNaive measures the one-run-per-kill-point campaign.
func BenchmarkExhaustiveNaive(b *testing.B) { benchCampaign(b, faultinject.Run) }

// BenchmarkExhaustiveLockstep measures the shared-trunk campaign.
func BenchmarkExhaustiveLockstep(b *testing.B) { benchCampaign(b, faultinject.RunLockstep) }
