package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"

	"whatsnext/internal/asm"
	"whatsnext/internal/experiments"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/nn"
	"whatsnext/internal/sweep"
	"whatsnext/internal/wncheck"
	"whatsnext/internal/workloads"
)

// The inject workload runs certification campaigns on clean programs:
// the Table I precise builds under clank, nvp and undolog and the
// progress-embedded NN builds under restart, all at study size. Each
// (target, runtime) pair is two campaigns, each one sweep job: a
// CrossValidate against the target's certificate and a strided
// RunLockstep, both injecting injectPoints kills.

const injectPoints = 32

// hazardProgram is the seeded-hazard program every run must still see
// witnessed, read from the checkout (the faultinject tests use it).
const hazardProgram = "internal/faultinject/testdata/clank_stage.s"

func policy(name string) func() intermittent.Policy {
	switch name {
	case "clank":
		return func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) }
	case "nvp":
		return func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) }
	case "undolog":
		return func() intermittent.Policy { return intermittent.NewUndoLog(intermittent.DefaultUndoLogConfig()) }
	case "restart":
		return func() intermittent.Policy { return intermittent.NewRestart(intermittent.DefaultRestartConfig()) }
	}
	panic("perfbench: unknown runtime " + name)
}

// injTarget is one build under injection, the runtimes it runs under,
// and its seeded input.
type injTarget struct {
	v         experiments.Variant
	runtimes  []string
	inputSeed int64
	set       verified // from set-up
	inputs    map[string][]int64
	cert      *wncheck.Certificate
	t         faultinject.Target
}

type campaign struct {
	target   int
	runtime  string
	lockstep bool
	spec     sweep.Spec
}

type campaignReplay struct {
	out       []byte // report JSON
	goldenGap uint64 // faultinject.GoldenProgress max commit gap
}

type inject struct {
	points    int
	targets   []*injTarget
	campaigns []campaign
	replays   []campaignReplay
}

func newInject(seed int64, points int) *inject {
	in := &inject{points: points}
	for _, b := range workloads.All() {
		in.targets = append(in.targets, &injTarget{
			v:        experiments.PreciseVariant(b, b.ScaledParams()),
			runtimes: []string{"clank", "nvp", "undolog"},
		})
	}
	for _, b := range nn.All() {
		in.targets = append(in.targets, &injTarget{
			v:        experiments.NNVariant(b, b.ScaledParams(), 0),
			runtimes: []string{"restart"},
		})
	}
	for k, t := range in.targets {
		t.inputSeed = derive(seed, "inject-input", k)
	}
	// All CrossValidate campaigns first: they are the long ones.
	for _, lockstep := range []bool{false, true} {
		engine := "cross"
		if lockstep {
			engine = "lockstep"
		}
		for k, t := range in.targets {
			for _, rt := range t.runtimes {
				in.campaigns = append(in.campaigns, campaign{target: k, runtime: rt, lockstep: lockstep, spec: sweep.Spec{
					Experiment: "inject",
					Kernel:     t.v.Bench.Name,
					Variant:    t.v.String(),
					Processor:  rt,
					InputSeed:  t.inputSeed,
					Params:     map[string]string{"engine": engine, "points": strconv.Itoa(points)},
				}})
			}
		}
	}
	return in
}

func (in *inject) kind() string { return "campaign" }

func (in *inject) setupRound(rec *recorder, parent int64) error {
	for _, t := range in.targets {
		s, err := compileAndVerify(t.v, rec, parent)
		if err != nil {
			return err
		}
		t.set = s
		t.inputs = t.v.Bench.Inputs(t.v.Params, t.inputSeed)
	}
	return nil
}

func (in *inject) prepare() ([]sweep.Job, error) {
	for _, t := range in.targets {
		c, err := t.set.warm()
		if err != nil {
			return nil, err
		}
		t.cert = c.Cert
		t.t = faultinject.FromCompiled(t.v.String(), c, t.inputs)
	}
	jobs := make([]sweep.Job, len(in.campaigns))
	for i, cp := range in.campaigns {
		jobs[i] = sweep.Job{Spec: cp.spec, Run: func() (any, error) { return in.run(cp) }}
	}
	return jobs, nil
}

// run is one campaign as production runs it.
func (in *inject) run(cp campaign) (any, error) {
	t := in.targets[cp.target]
	cfg := faultinject.Config{Policy: policy(cp.runtime)}
	if cp.lockstep {
		return faultinject.RunLockstep(t.t, cfg, faultinject.Schedule{Points: in.points})
	}
	return faultinject.CrossValidate(t.t, faultinject.CrossConfig{Config: cfg, MaxPoints: in.points}, t.cert)
}

func (in *inject) replay(eng *sweep.Engine, rec *recorder) error {
	in.replays = make([]campaignReplay, len(in.campaigns))
	jobs := make([]sweep.Job, len(in.campaigns))
	for i, cp := range in.campaigns {
		spec := cp.spec
		spec.Experiment = "replay-inject"
		jobs[i] = sweep.Job{Spec: spec, Run: func() (any, error) {
			r, err := in.replayCampaign(i, rec)
			if err != nil {
				oracleError("replay", spec, err)
				r.out = nil
			}
			in.replays[i] = r
			return struct{}{}, nil
		}}
	}
	_, err := eng.Run(jobs)
	return err
}

// replayCampaign re-runs one campaign call by call: the golden progress
// run, then the campaign itself. Replays of CrossValidate campaigns also
// time loading, cloning and bare execution of the target.
func (in *inject) replayCampaign(i int, rec *recorder) (campaignReplay, error) {
	cp := in.campaigns[i]
	t := in.targets[cp.target]
	op := int64(i + 1)
	root := rec.begin("replay.campaign", 0, op)
	defer root.end(0)
	pid := root.id()

	var r campaignReplay
	sp := rec.begin("faultinject.golden", pid, op)
	gap, _, err := faultinject.GoldenProgress(t.t, faultinject.Config{})
	sp.end(0)
	if err != nil {
		return r, err
	}
	r.goldenGap = gap

	if !cp.lockstep {
		if err := in.bare(t, rec, pid, op); err != nil {
			return r, err
		}
	}

	cfg := faultinject.Config{Policy: policy(cp.runtime)}
	var rep any
	var points int
	if cp.lockstep {
		sp = rec.begin("faultinject.lockstep", pid, op)
		lr, err := faultinject.RunLockstep(t.t, cfg, faultinject.Schedule{Points: in.points})
		if lr != nil {
			points = lr.Points
		}
		rep = lr
		sp.end(uint64(points))
		if err != nil {
			return r, err
		}
	} else {
		sp = rec.begin("faultinject.cross", pid, op)
		cr, err := faultinject.CrossValidate(t.t, faultinject.CrossConfig{Config: cfg, MaxPoints: in.points}, t.cert)
		if cr != nil {
			points = cr.Points
		}
		rep = cr
		sp.end(uint64(points))
		if err != nil {
			return r, err
		}
	}
	r.out, err = json.Marshal(rep)
	return r, err
}

// bare loads the target, clones the installed memory and runs it to HALT
// on a bare CPU.
func (in *inject) bare(t *injTarget, rec *recorder, pid, op int64) error {
	sp := rec.begin("mem.load", pid, op)
	m, err := installed(t.set.c, t.inputs)
	sp.end(0)
	if err != nil {
		return err
	}
	sp = rec.begin("mem.clone", pid, op)
	m.Clone()
	sp.end(0)
	_, err = bareRun(t.set.c, m, rec, pid, op)
	return err
}

// check applies the injection guard: a CrossValidate must be Validated,
// with a progress check that held and exactly the requested points; a
// RunLockstep must be Clean with exactly the requested points. After a
// replay, each report must equal its replay byte for byte and each
// CrossValidate's MaxCommitGap the replayed GoldenProgress gap. The guard
// operation witnesses the seeded hazard.
func (in *inject) check(eng *sweep.Engine, prod []json.RawMessage) ([]bool, int, int, error) {
	ok := make([]bool, len(in.campaigns))
	for i, cp := range in.campaigns {
		replayed := in.replays != nil
		good := !replayed || bytes.Equal(prod[i], in.replays[i].out)
		if cp.lockstep {
			rep, decoded := decode[faultinject.Report](prod[i])
			good = good && decoded && rep.Clean() && rep.Points == in.points
		} else {
			rep, decoded := decode[faultinject.CrossReport](prod[i])
			good = good && decoded && rep.Validated() && rep.ProgressChecked && !rep.ProgressViolation &&
				rep.Points == in.points && (!replayed || rep.MaxCommitGap == in.replays[i].goldenGap)
		}
		ok[i] = good
	}

	var witnessed bool
	hazard := sweep.Spec{Experiment: "hazard", Kernel: hazardProgram, Processor: "clank"}
	_, err := eng.Run([]sweep.Job{{Spec: hazard, Run: func() (any, error) {
		ok, err := hazardWitnessed()
		if err != nil {
			oracleError("hazard guard", hazard, err)
		}
		witnessed = ok && err == nil
		return struct{}{}, nil
	}}})
	if err != nil {
		return nil, 0, 0, err
	}
	failed := 0
	if !witnessed {
		failed = 1
	}
	return ok, 1, failed, nil
}

// hazardWitnessed checks the seeded WN103 hazard both ways: the static
// crash analysis flags it, and exhaustive injection under Clank produces
// a divergence.
func hazardWitnessed() (bool, error) {
	src, err := os.ReadFile(hazardProgram)
	if err != nil {
		return false, err
	}
	p, err := asm.AssembleNamed(hazardProgram, string(src))
	if err != nil {
		return false, err
	}
	res, err := wncheck.Check(p, wncheck.Options{Crash: true})
	if err != nil {
		return false, err
	}
	flagged := false
	for _, d := range res.Diags {
		flagged = flagged || d.Code == wncheck.CodeVolatileCross
	}
	rep, err := faultinject.Run(faultinject.FromProgram(hazardProgram, p),
		faultinject.Config{Policy: policy("clank")}, faultinject.Schedule{Exhaustive: true})
	if err != nil {
		return false, err
	}
	return flagged && !rep.Clean(), nil
}

// qualityErr is the mean WCEC slack of the CrossValidate campaigns: how far
// the certified per-region bound sits above the observed worst commit
// gap, relative to the bound.
func (in *inject) qualityErr(prod []json.RawMessage) float64 {
	var slack []float64
	for i, cp := range in.campaigns {
		if cp.lockstep {
			continue
		}
		if rep, ok := decode[faultinject.CrossReport](prod[i]); ok && rep.StaticRegionBound > 0 {
			slack = append(slack, 100*(float64(rep.StaticRegionBound)-float64(rep.MaxCommitGap))/float64(rep.StaticRegionBound))
		}
	}
	return mean(slack)
}

func (in *inject) layers(st map[string]*layerStats, win window, prod []json.RawMessage, add addMetric) {
	medianOf(st, "mem.load", "mem.load_us", 1e3, add)
	medianOf(st, "mem.clone", "mem.clone_us", 1e3, add)
	add("cpu.ns_per_instr", perUnit(st, "cpu.run"), countOf(st, "cpu.run"))
	medianOf(st, "faultinject.golden", "faultinject.golden_ms", 1e6, add)
	medianOf(st, "faultinject.cross", "faultinject.cross_ms", 1e6, add)
	medianOf(st, "faultinject.lockstep", "faultinject.lockstep_ms", 1e6, add)
	add("faultinject.cross_ns_per_kill", perUnit(st, "faultinject.cross"), countOf(st, "faultinject.cross"))
	add("faultinject.lockstep_ns_per_kill", perUnit(st, "faultinject.lockstep"), countOf(st, "faultinject.lockstep"))

	kills := 0
	for i, cp := range in.campaigns {
		if cp.lockstep {
			if rep, ok := decode[faultinject.Report](prod[i]); ok {
				kills += rep.Points
			}
		} else if rep, ok := decode[faultinject.CrossReport](prod[i]); ok {
			kills += rep.Points
		}
	}
	add("faultinject.kill_points", float64(kills), len(prod))
	add("faultinject.kills_per_s", float64(kills*win.passes)/win.wall, win.ops)
}
