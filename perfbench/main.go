// Command perfbench is the repository benchmark: it times the paper's
// dominant workloads end to end through the public entry points of the
// simulator's packages, checks every output against an oracle, and, in a
// separate traced run, breaks the time down per layer.
//
// Workloads:
//
//	harvest-clank  Figure 10 speedup cells on the Clank runtime
//	inject         certified fault-injection campaigns (CrossValidate + RunLockstep)
//	harvest-nvp    the speedup cells on the NVP runtime (runnable, not listed
//	               in BENCHMARK.json: three workloads do not fit its time budget)
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload harvest-clank --seed 1 --seconds 45 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The lines before it
// report sample counts and, when traced, per-layer self times.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"whatsnext/internal/core"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	spans    string // traced runs dump their spans here
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed; trace and input seeds derive from it")
	fs.Float64Var(&o.seconds, "seconds", 45, "measured wall time, seconds (at least four passes run)")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// One engine with one worker per CPU is the only load.
	o.workers = runtime.NumCPU()
	o.spans = fmt.Sprintf(".bench_build/spans-%s-%d.json", o.workload, o.seed)
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

var workloadNames = []string{"harvest-clank", "harvest-nvp", "inject"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "harvest-clank":
		return newHarvest(core.ProcClank, seed, harvestTraces, harvestBenches()), nil
	case "harvest-nvp":
		return newHarvest(core.ProcNVP, seed, harvestTraces, harvestBenches()), nil
	case "inject":
		return newInject(seed, injectPoints), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, r result) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints one human-readable metric line with its raw value and
// sample count.
func report(w io.Writer, name string, m metric, raw float64, samples int) {
	fmt.Fprintf(w, "  %-36s %14.6g %-6s [%14.6g] n=%d\n", name, m.Value, m.Unit, raw, samples)
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
