package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// The harvest workloads run Figure 10/11-shaped speedup cells: each cell
// is one sweep.Spec{Experiment: "speedup"} resolved by
// experiments.ResolveSpec and run by sweep.Engine.Run, the production
// path of wnbench and wnserved.

// harvestTraces is the number of seeded (trace, input) slots per
// (kernel, bits) pair.
const harvestTraces = 3

var harvestBits = []int{8, 4}

// paperSpeedup holds the paper's geomean speedups (abstract; Figures 10
// and 11) that model_gap_pct compares the simulated geomeans against.
var paperSpeedup = map[core.Processor]map[int]float64{
	core.ProcClank: {8: 1.78, 4: 3.02},
	core.ProcNVP:   {8: 1.41, 4: 2.26},
}

// harvestBenches are the six Table I kernels, in Table I order (the two
// paper-size kernels first, so the long cells start first).
func harvestBenches() []*workloads.Benchmark { return workloads.All() }

// paperSize reports whether a kernel runs at the paper's size: Conv2d and
// MatMul, which the paper fully specifies. The other four run at study
// size: at paper size they finish in one charge and never brown out.
func paperSize(b *workloads.Benchmark) bool { return b.Name == "Conv2d" || b.Name == "MatMul" }

func harvestParams(b *workloads.Benchmark) workloads.Params {
	if paperSize(b) {
		return b.DefaultParams()
	}
	return b.ScaledParams()
}

type cell struct {
	b                    *workloads.Benchmark
	p                    workloads.Params
	bits, slot           int
	traceSeed, inputSeed int64
	spec                 sweep.Spec
}

// cellResult mirrors the JSON a speedup cell produces.
type cellResult struct {
	WNCycles      uint64
	PreciseCycles uint64
	NRMSE         float64
}

// cellReplay is one cell re-executed through core.System.
type cellReplay struct {
	out    []byte // cellResult JSON
	wn, pr intermittent.Result
	// contPR is the precise build's instruction count under continuous
	// power (traced runs only).
	contPR uint64
}

type harvest struct {
	proc     core.Processor
	seed     int64
	benches  []*workloads.Benchmark
	cells    []cell
	verified []verified
	inputs   map[string]map[string][]int64 // bench/slot → inputs, from set-up
	replays  []cellReplay
}

func newHarvest(proc core.Processor, seed int64, traces int, benches []*workloads.Benchmark) *harvest {
	h := &harvest{proc: proc, seed: seed, benches: benches}
	for _, b := range benches {
		p := harvestParams(b)
		for _, bits := range harvestBits {
			for t := 0; t < traces; t++ {
				c := cell{b: b, p: p, bits: bits, slot: t,
					traceSeed: derive(seed, "trace", t), inputSeed: derive(seed, "input", t)}
				c.spec = speedupSpec(proc, c)
				h.cells = append(h.cells, c)
			}
		}
	}
	return h
}

// speedupSpec builds the spec wnbench submits for one Figure 10/11 cell.
func speedupSpec(proc core.Processor, c cell) sweep.Spec {
	params, err := json.Marshal(c.p)
	if err != nil {
		panic(err)
	}
	return sweep.Spec{
		Experiment: "speedup",
		Kernel:     c.b.Name,
		Variant:    experiments.WNVariant(c.b, c.p, c.bits).String(),
		Processor:  proc.String(),
		Source:     string(energy.SourceWiFi),
		TraceSeed:  c.traceSeed,
		InputSeed:  c.inputSeed,
		Params:     map[string]string{"workload": string(params), "bits": strconv.Itoa(c.bits)},
	}
}

func (h *harvest) kind() string { return "cell" }

func (h *harvest) variants() []experiments.Variant {
	var vs []experiments.Variant
	for _, b := range h.benches {
		p := harvestParams(b)
		vs = append(vs, experiments.PreciseVariant(b, p))
		for _, bits := range harvestBits {
			vs = append(vs, experiments.WNVariant(b, p, bits))
		}
	}
	return vs
}

func (h *harvest) setupRound(rec *recorder, parent int64) error {
	h.verified = h.verified[:0]
	for _, v := range h.variants() {
		s, err := compileAndVerify(v, rec, parent)
		if err != nil {
			return err
		}
		h.verified = append(h.verified, s)
	}
	h.inputs = map[string]map[string][]int64{}
	for _, c := range h.cells {
		key := c.b.Name + "/" + strconv.Itoa(c.slot)
		if h.inputs[key] == nil {
			h.inputs[key] = c.b.Inputs(c.p, c.inputSeed)
		}
	}
	return nil
}

func (h *harvest) prepare() ([]sweep.Job, error) {
	for _, s := range h.verified {
		if _, err := s.warm(); err != nil {
			return nil, err
		}
	}
	jobs := make([]sweep.Job, len(h.cells))
	for i, c := range h.cells {
		j, err := experiments.ResolveSpec(c.spec)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

func (h *harvest) replay(eng *sweep.Engine, rec *recorder) error {
	h.replays = make([]cellReplay, len(h.cells))
	jobs := make([]sweep.Job, len(h.cells))
	for i, c := range h.cells {
		spec := c.spec
		spec.Experiment = "replay-speedup"
		jobs[i] = sweep.Job{Spec: spec, Run: func() (any, error) {
			r, err := h.replayCell(i, rec)
			if err != nil {
				oracleError("replay", spec, err)
				r.out = nil
			}
			h.replays[i] = r
			return struct{}{}, nil
		}}
	}
	_, err := eng.Run(jobs)
	return err
}

// replayCell re-executes one cell call by call: inputs and golden output,
// the two harvest traces, then the WN and precise builds on their own
// core.System, scoring the WN output; then both builds on a bare CPU.
func (h *harvest) replayCell(i int, rec *recorder) (cellReplay, error) {
	c := h.cells[i]
	op := int64(i + 1)
	root := rec.begin("replay.cell", 0, op)
	defer root.end(0)
	pid := root.id()

	wn, err := experiments.WNVariant(c.b, c.p, c.bits).Compile()
	if err != nil {
		return cellReplay{}, err
	}
	pr, err := experiments.PreciseVariant(c.b, c.p).Compile()
	if err != nil {
		return cellReplay{}, err
	}
	sp := rec.begin("workloads.golden", pid, op)
	in := c.b.Inputs(c.p, c.inputSeed)
	golden := c.b.Golden(c.p, in)
	sp.end(0)
	sp = rec.begin("energy.trace", pid, op)
	wnTrace := energy.SyntheticWiFiTrace(c.traceSeed, energy.DefaultTraceConfig())
	prTrace := energy.SyntheticWiFiTrace(c.traceSeed, energy.DefaultTraceConfig())
	sp.end(0)

	var r cellReplay
	wnSys, err := h.system(wn, wnTrace, in, rec, pid, op)
	if err != nil {
		return r, err
	}
	sp = rec.begin("intermittent.run", pid, op)
	r.wn, err = wnSys.RunInput(in)
	sp.end(r.wn.Instructions)
	if err != nil {
		return r, err
	}
	sp = rec.begin("quality.score", pid, op)
	out, err := wnSys.Output(c.b.Output)
	nrmse := quality.NRMSE(out, golden)
	sp.end(0)
	if err != nil {
		return r, err
	}

	prSys, err := h.system(pr, prTrace, in, rec, pid, op)
	if err != nil {
		return r, err
	}
	sp = rec.begin("intermittent.run", pid, op)
	r.pr, err = prSys.RunInput(in)
	sp.end(r.pr.Instructions)
	if err != nil {
		return r, err
	}
	if r.out, err = json.Marshal(cellResult{r.wn.TotalCycles(), r.pr.TotalCycles(), nrmse}); err != nil {
		return r, err
	}

	key := c.b.Name + "/" + strconv.Itoa(c.slot)
	for _, build := range []*compiler.Compiled{wn, pr} {
		m, err := installed(build, h.inputs[key])
		if err != nil {
			return r, err
		}
		n, err := bareRun(build, m, rec, pid, op)
		if err != nil {
			return r, err
		}
		if build == pr {
			r.contPR = n
		}
	}
	return r, nil
}

// system builds a powered device for one build, as the speedup study
// does, and installs the program and inputs.
func (h *harvest) system(c *compiler.Compiled, trace *energy.Trace, in map[string][]int64,
	rec *recorder, pid, op int64) (*core.System, error) {
	cfg := core.DefaultConfig()
	cfg.Processor = h.proc
	sys := core.NewSystem(cfg, trace)
	sp := rec.begin("mem.load", pid, op)
	err := sys.Load(c)
	if err == nil {
		err = c.InstallData(sys.Mem, in)
	}
	sp.end(0)
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// referenceCells picks the seeded sample of cells the reference oracle
// reruns: one paper-size cell, the long runs with many outages, and one
// study-size cell, each drawn by seed from its own stratum.
func (h *harvest) referenceCells() []int {
	var strata [2][]int
	for i, c := range h.cells {
		k := 1
		if paperSize(c.b) {
			k = 0
		}
		strata[k] = append(strata[k], i)
	}
	var idx []int
	for k, cells := range strata {
		if len(cells) > 0 {
			idx = append(idx, cells[derive(h.seed, "reference", k)%int64(len(cells))])
		}
	}
	return idx
}

// check reruns a seeded sample of cells through core.System twice, on the
// batched runner and on the per-instruction reference loop
// (Runner.Reference): both builds' intermittent.Results must agree field
// for field, and the cell built from the reference results must equal the
// production JSON byte for byte. After a replay, every production cell
// must also equal its replay byte for byte.
func (h *harvest) check(eng *sweep.Engine, prod []json.RawMessage) ([]bool, int, int, error) {
	ok := make([]bool, len(h.cells))
	for i := range h.cells {
		ok[i] = h.replays == nil || bytes.Equal(prod[i], h.replays[i].out)
	}
	sample := h.referenceCells()
	match := make([]bool, len(sample))
	jobs := make([]sweep.Job, len(sample))
	for k, i := range sample {
		spec := h.cells[i].spec
		spec.Experiment = "reference-speedup"
		jobs[k] = sweep.Job{Spec: spec, Run: func() (any, error) {
			m, err := h.referenceMatches(i, prod[i])
			if err != nil {
				oracleError("reference run", spec, err)
			}
			match[k] = m && err == nil
			return struct{}{}, nil
		}}
	}
	if _, err := eng.Run(jobs); err != nil {
		return nil, 0, 0, err
	}
	for k, i := range sample {
		ok[i] = ok[i] && match[k]
	}
	return ok, 0, 0, nil
}

func (h *harvest) referenceMatches(i int, prod json.RawMessage) (bool, error) {
	c := h.cells[i]
	in := c.b.Inputs(c.p, c.inputSeed)
	var cycles [2]uint64
	var nrmse float64
	for k, v := range []experiments.Variant{experiments.WNVariant(c.b, c.p, c.bits), experiments.PreciseVariant(c.b, c.p)} {
		build, err := v.Compile()
		if err != nil {
			return false, err
		}
		var res [2]intermittent.Result
		for j, reference := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Processor = h.proc
			sys := core.NewSystem(cfg, energy.SyntheticWiFiTrace(c.traceSeed, energy.DefaultTraceConfig()))
			if err := sys.Load(build); err != nil {
				return false, err
			}
			sys.Runner.Reference = reference
			if res[j], err = sys.RunInput(in); err != nil {
				return false, err
			}
			if reference && k == 0 {
				out, err := sys.Output(c.b.Output)
				if err != nil {
					return false, err
				}
				nrmse = quality.NRMSE(out, c.b.Golden(c.p, in))
			}
		}
		if res[0] != res[1] {
			return false, nil
		}
		cycles[k] = res[1].TotalCycles()
	}
	want, err := json.Marshal(cellResult{cycles[0], cycles[1], nrmse})
	return bytes.Equal(want, prod), err
}

// speedupErr is the mean, over 8 and 4 bits, of the relative gap between
// the simulated geomean speedup (over kernels, of each kernel's median
// over its cells) and the paper's.
func (h *harvest) speedupErr(prod []json.RawMessage) float64 {
	gaps := []float64{}
	for _, bits := range harvestBits {
		var meds []float64
		for _, b := range h.benches {
			var sp []float64
			for i, c := range h.cells {
				if c.b != b || c.bits != bits {
					continue
				}
				if r, ok := decode[cellResult](prod[i]); ok && r.WNCycles > 0 {
					sp = append(sp, float64(r.PreciseCycles)/float64(r.WNCycles))
				}
			}
			if len(sp) > 0 {
				meds = append(meds, median(sp))
			}
		}
		ref := paperSpeedup[h.proc][bits]
		gaps = append(gaps, 100*math.Abs(geomean(meds)-ref)/ref)
	}
	return mean(gaps)
}

// qualityErr is the geometric mean over cells of the WN output's NRMSE
// (percent). The geometric mean keeps one input-sensitive kernel from
// dominating; an exact output counts as minNRMSE so the mean stays
// defined.
func (h *harvest) qualityErr(prod []json.RawMessage) float64 {
	var nrmse []float64
	for _, raw := range prod {
		if r, ok := decode[cellResult](raw); ok {
			nrmse = append(nrmse, math.Max(r.NRMSE, minNRMSE))
		}
	}
	return geomean(nrmse)
}

// minNRMSE is the floor an exact WN output is counted at, in percent.
const minNRMSE = 1e-3

func (h *harvest) layers(st map[string]*layerStats, win window, prod []json.RawMessage, add addMetric) {
	medianOf(st, "workloads.golden", "workloads.golden_ms", 1e6, add)
	medianOf(st, "energy.trace", "energy.trace_ms", 1e6, add)
	medianOf(st, "intermittent.run", "intermittent.run_ms", 1e6, add)
	medianOf(st, "mem.load", "mem.load_us", 1e3, add)
	medianOf(st, "quality.score", "quality.score_us", 1e3, add)
	run, bare := perUnit(st, "intermittent.run"), perUnit(st, "cpu.run")
	add("intermittent.ns_per_instr", run, countOf(st, "intermittent.run"))
	add("cpu.ns_per_instr", bare, countOf(st, "cpu.run"))
	add("intermittent.overhead_ns_per_instr", run-bare, countOf(st, "intermittent.run"))

	var outages, checkpoints, off, total, prInstr, prCont float64
	for _, r := range h.replays {
		for _, res := range []intermittent.Result{r.wn, r.pr} {
			outages += float64(res.Outages)
			checkpoints += float64(res.Checkpoints)
			off += float64(res.CyclesOff)
			total += float64(res.TotalCycles())
		}
		prInstr += float64(r.pr.Instructions)
		prCont += float64(r.contPR)
	}
	runs := 2 * len(h.replays)
	add("energy.outages", outages/float64(runs), runs)
	add("energy.off_frac", off/total, runs)
	add("intermittent.checkpoints", checkpoints/float64(runs), runs)
	add("intermittent.reexec_ratio", prInstr/prCont, len(h.replays))

	add("experiments.speedup_err_pct", h.speedupErr(prod), len(prod))
}
