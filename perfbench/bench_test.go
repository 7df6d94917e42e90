package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// smallHarvest is a harvest workload over two study-size kernels, small
// enough to run in a unit test.
func smallHarvest(t *testing.T, seed int64) (*harvest, []sweep.Job) {
	t.Helper()
	var benches []*workloads.Benchmark
	for _, name := range []string{"Var", "Home"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, b)
	}
	h := newHarvest(core.ProcClank, seed, 2, benches)
	if err := h.setupRound(nil, 0); err != nil {
		t.Fatal(err)
	}
	jobs, err := h.prepare()
	if err != nil {
		t.Fatal(err)
	}
	return h, jobs
}

func runJobs(t *testing.T, workers int, jobs []sweep.Job) []json.RawMessage {
	t.Helper()
	raws, err := sweep.New(sweep.Options{Workers: workers}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return raws
}

func TestCellsIdenticalAcrossWorkerCounts(t *testing.T) {
	_, jobs := smallHarvest(t, defaultSeed)
	one, two := runJobs(t, 1, jobs), runJobs(t, 2, jobs)
	for i := range one {
		if !bytes.Equal(one[i], two[i]) {
			t.Fatalf("cell %d (%s): 1 worker %s, 2 workers %s", i, jobs[i].Spec, one[i], two[i])
		}
	}
}

func TestSameSeedAgrees(t *testing.T) {
	h1, jobs1 := smallHarvest(t, heldOutSeed)
	h2, jobs2 := smallHarvest(t, heldOutSeed)
	for i := range h1.cells {
		if !reflect.DeepEqual(h1.cells[i].spec, h2.cells[i].spec) {
			t.Fatalf("cell %d: specs differ at one seed: %s vs %s", i, h1.cells[i].spec, h2.cells[i].spec)
		}
	}
	a, b := runJobs(t, 2, jobs1), runJobs(t, 2, jobs2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs at one seed produced different results")
	}
	if !reflect.DeepEqual(newInject(heldOutSeed, injectPoints).campaigns, newInject(heldOutSeed, injectPoints).campaigns) {
		t.Fatal("inject campaigns differ at one seed")
	}
}

func TestSeedChangesSpecs(t *testing.T) {
	for _, proc := range []core.Processor{core.ProcClank, core.ProcNVP} {
		a := newHarvest(proc, defaultSeed, harvestTraces, harvestBenches())
		b := newHarvest(proc, heldOutSeed, harvestTraces, harvestBenches())
		for i := range a.cells {
			if a.cells[i].spec.Hash() == b.cells[i].spec.Hash() {
				t.Fatalf("%s cell %d has the same spec under seeds %d and %d", proc, i, defaultSeed, heldOutSeed)
			}
		}
	}
	a, b := newInject(defaultSeed, injectPoints), newInject(heldOutSeed, injectPoints)
	for i := range a.campaigns {
		if a.campaigns[i].spec.Hash() == b.campaigns[i].spec.Hash() {
			t.Fatalf("campaign %d has the same spec under seeds %d and %d", i, defaultSeed, heldOutSeed)
		}
	}
}

func TestDeriveRange(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := derive(int64(i%7), "trace", i)
		if s < 1 || s > maxSeedValue {
			t.Fatalf("derived seed %d out of range", s)
		}
		seen[s] = true
	}
	if len(seen) < 990 {
		t.Fatalf("derive collides too often: %d distinct of 1000", len(seen))
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // clipped at 100
	}}
	st := r.summarize()
	if got := st["parent"].Self; got != 40 {
		t.Fatalf("parent self time = %v, want 40", got)
	}
	if got := st["child"].Total; got != 90 {
		t.Fatalf("child total = %v, want 90", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-9 {
		t.Fatalf("p90 = %v", q)
	}
}

func TestMeasureTracedSmallHarvest(t *testing.T) {
	h, _ := smallHarvest(t, defaultSeed)
	var out bytes.Buffer
	o := options{workload: "small", seed: defaultSeed, seconds: 0.01, trace: true, workers: 2,
		spans: t.TempDir() + "/spans.json"}
	res, err := measure(h, o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minPasses*len(h.cells) {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"intermittent.run_ms", "cpu.ns_per_instr", "energy.outages", "intermittent.reexec_ratio"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	for _, name := range []string{"faultinject.cross_ms", "faultinject.lockstep_ms", "faultinject.kill_points", "mem.clone_us"} {
		if res.Metrics[name].Value != 0 {
			t.Errorf("%s = %v on a harvest workload, want 0", name, res.Metrics[name].Value)
		}
	}
}

// The reference oracle must always rerun one paper-size cell, whatever
// the seed, and one study-size cell.
func TestReferenceSampleStratified(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		h := newHarvest(core.ProcClank, seed, harvestTraces, harvestBenches())
		idx := h.referenceCells()
		if len(idx) != 2 || !paperSize(h.cells[idx[0]].b) || paperSize(h.cells[idx[1]].b) {
			t.Fatalf("seed %d: reference cells %v, want one paper-size then one study-size cell", seed, idx)
		}
	}
}

func TestHazardWitnessed(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	ok, err := hazardWitnessed()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("seeded hazard not flagged and witnessed")
	}
}

// Every workload needs minOps distinct operations so that at least ten
// operation times lie beyond op_p70_ms.
func TestWorkloadsHaveEnoughOperations(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		switch w := w.(type) {
		case *harvest:
			n = len(w.cells)
		case *inject:
			n = len(w.campaigns)
		}
		if n < minOps {
			t.Errorf("%s has %d operations per pass, want at least %d", name, n, minOps)
		}
	}
}
