package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
	"whatsnext/internal/nn"
	"whatsnext/internal/workloads"
)

// dataImage reads the full NV data region.
func dataImage(t *testing.T, m *mem.Memory) []byte {
	t.Helper()
	buf := make([]byte, m.Config().DataBytes)
	if err := m.ReadData(mem.DataBase, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestBatchedContinuousMatchesReference runs every Table I kernel's precise
// build to halt twice — once per-instruction through Step, once through the
// batched executor Run — and requires identical final data memory, CPU
// statistics, and cycle counts.
func TestBatchedContinuousMatchesReference(t *testing.T) {
	for _, b := range workloads.All() {
		t.Run(b.Name, func(t *testing.T) {
			p := b.ScaledParams()
			c, err := PreciseVariant(b, p).Compile()
			if err != nil {
				t.Fatal(err)
			}
			in := b.Inputs(p, 1)

			refCPU, refMem, err := bareDevice(c, in, false)
			if err != nil {
				t.Fatal(err)
			}
			refCPU.SetAmenablePCs(c.Program.Amenable)
			var refCycles uint64
			for !refCPU.Halted {
				cost, err := refCPU.Step()
				if err != nil {
					t.Fatalf("reference fault: %v", err)
				}
				refCycles += uint64(cost.Cycles)
			}

			batCPU, batMem, err := bareDevice(c, in, false)
			if err != nil {
				t.Fatal(err)
			}
			batCPU.SetAmenablePCs(c.Program.Amenable)
			var batCycles uint64
			for !batCPU.Halted {
				res, err := batCPU.Run(1<<62, nil)
				if err != nil {
					t.Fatalf("batched fault: %v", err)
				}
				batCycles += res.Cycles
			}

			if refCycles != batCycles {
				t.Errorf("cycles diverge: reference %d, batched %d", refCycles, batCycles)
			}
			if !reflect.DeepEqual(refCPU.Stats, batCPU.Stats) {
				t.Errorf("stats diverge:\nreference %+v\nbatched   %+v", refCPU.Stats, batCPU.Stats)
			}
			if refMem.NVWrites != batMem.NVWrites || refMem.Reads != batMem.Reads || refMem.Writes != batMem.Writes {
				t.Errorf("memory counters diverge: reference (%d %d %d), batched (%d %d %d)",
					refMem.Reads, refMem.Writes, refMem.NVWrites, batMem.Reads, batMem.Writes, batMem.NVWrites)
			}
			refData := dataImage(t, refMem)
			batData := dataImage(t, batMem)
			for i := range refData {
				if refData[i] != batData[i] {
					t.Fatalf("data memory diverges at %#08x: reference %#02x, batched %#02x",
						mem.DataBase+uint32(i), refData[i], batData[i])
				}
			}
		})
	}
}

// TestBatchedIntermittentMatchesReference is the end-to-end differential
// under power failures. Every Table I kernel runs, WN and precise build,
// and every NN kernel runs, each progress-embedded build, under every
// runtime over a seeded harvest trace: Clank, NVP and the undo log as
// core.System wires them, and Naive and Restart on a runner built by
// intermittent.NewRunner. Each runs once on the runner's per-instruction
// reference loop and once on the batched loop. The Result structs (cycles
// on and off, instructions, outages, checkpoints, energy drawn), the run's
// error, the final data memory, and the supply's harvested and stored
// energy must match bit for bit.
//
// Every run must halt without error, except a Table I build under Restart:
// neither build embeds progress, so Restart reboots it into the same
// passes at every outage and it never halts once it outlives a charge.
// Only those runs carry a cycle budget and may end in ErrCycleBudget,
// which must fire at the same instruction on both loops. The NN builds
// are the halting Restart cases.
func TestBatchedIntermittentMatchesReference(t *testing.T) {
	const budget = 4 << 20
	type device struct {
		runner *intermittent.Runner
		mem    *mem.Memory
		run    func() (intermittent.Result, error)
	}
	policies := map[string]func() intermittent.Policy{
		"naive":   func() intermittent.Policy { return intermittent.NewNaive(intermittent.DefaultNaiveConfig()) },
		"restart": func() intermittent.Policy { return intermittent.NewRestart(intermittent.DefaultRestartConfig()) },
	}
	runtimes := []string{"clank", "nvp", "undolog", "naive", "restart"}
	procs := map[string]core.Processor{"clank": core.ProcClank, "nvp": core.ProcNVP, "undolog": core.ProcUndoLog}
	type build struct {
		name string
		c    *compiler.Compiled
	}
	type kernel struct {
		b        *workloads.Benchmark
		in       map[string][]int64
		builds   []build
		budgeted bool // under Restart: no embedded progress, never halts
	}
	var kernels []kernel
	add := func(b *workloads.Benchmark, p workloads.Params, budgeted bool, names []string, vs ...Variant) {
		k := kernel{b: b, in: b.Inputs(p, 1), budgeted: budgeted}
		for i, v := range vs {
			c, err := v.Compile()
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, names[i], err)
			}
			k.builds = append(k.builds, build{names[i], c})
		}
		kernels = append(kernels, k)
	}
	for _, b := range workloads.All() {
		p := b.ScaledParams()
		add(b, p, true, []string{"wn", "precise"}, WNVariant(b, p, 4), PreciseVariant(b, p))
	}
	for _, b := range nn.All() {
		// Sizes at which every embedded build sees outages and still
		// halts under Restart: at paper size an NNConv row or a precise
		// NNFC sample outlives a charge, and at study size pooling ends
		// inside the first charge.
		p := b.ScaledParams()
		if strings.HasPrefix(b.Name, "NNPool") {
			p = b.DefaultParams()
		}
		var names []string
		var vs []Variant
		for _, bits := range nnBits(b) {
			name := "embed"
			if bits != 0 {
				name += itoa(bits)
			}
			names = append(names, name)
			vs = append(vs, NNVariant(b, p, bits))
		}
		add(b, p, false, names, vs...)
	}
	for _, k := range kernels {
		b, in := k.b, k.in
		for _, rt := range runtimes {
			t.Run(b.Name+"/"+rt, func(t *testing.T) {
				for _, bd := range k.builds {
					t.Run(bd.name, func(t *testing.T) {
						budgeted := rt == "restart" && k.budgeted
						// newDevice wires the runtime onto a fresh device with
						// the kernel and its inputs installed (core.System
						// installs them in RunInput); run runs it to halt.
						newDevice := func() device {
							trace := wifiTrace(42)
							if proc, ok := procs[rt]; ok {
								sys := intermittentSystem(proc, trace, false)
								if err := sys.Load(bd.c); err != nil {
									t.Fatal(err)
								}
								return device{sys.Runner, sys.Mem, func() (intermittent.Result, error) { return sys.RunInput(in) }}
							}
							cp, m, err := bareDevice(bd.c, in, false)
							if err != nil {
								t.Fatal(err)
							}
							cp.SetAmenablePCs(bd.c.Program.Amenable)
							r := intermittent.NewRunner(cp, m, energy.NewSupply(energy.DefaultDeviceConfig(), trace), policies[rt]())
							return device{r, m, r.RunToHalt}
						}
						type outcome struct {
							res             intermittent.Result
							err             string
							charged, stored uint64 // float64 bits
						}
						run := func(reference bool) (outcome, []byte) {
							d := newDevice()
							d.runner.Reference = reference
							if budgeted {
								d.runner.MaxCycles = budget
							}
							res, err := d.run()
							o := outcome{res: res, charged: math.Float64bits(d.runner.Supply.EnergyCharged),
								stored: math.Float64bits(d.runner.Supply.Stored())}
							if err != nil {
								o.err = err.Error()
							}
							return o, dataImage(t, d.mem)
						}

						ref, refData := run(true)
						bat, batData := run(false)
						if ref != bat {
							t.Errorf("outcomes diverge:\nreference %+v\nbatched   %+v", ref, bat)
						}
						switch {
						case budgeted && ref.err == intermittent.ErrCycleBudget.Error():
						case ref.err != "":
							t.Errorf("run failed: %s", ref.err)
						case !ref.res.Halted:
							t.Errorf("run ended without halting: %+v", ref.res)
						}
						if ref.res.Outages == 0 {
							t.Logf("note: trace produced no outages for %s/%s/%s", b.Name, rt, bd.name)
						}
						for i := range refData {
							if refData[i] != batData[i] {
								t.Fatalf("data memory diverges at %#08x: reference %#02x, batched %#02x",
									mem.DataBase+uint32(i), refData[i], batData[i])
							}
						}
					})
				}
			})
		}
	}
}
