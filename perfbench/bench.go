package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"whatsnext/internal/sweep"
)

// A run repeats its whole set-up in batches of at least minSetupRounds
// rounds and setupBatchSeconds: one batch before the first pass and one
// after every pass, so the rounds sample the same stretch of time as the
// operations. setup_s is the median round.
const (
	minSetupRounds    = 5
	setupBatchSeconds = 0.2
)

// workload is one benchmark workload. A run sets it up repeatedly, runs
// passes of its production operations on one sweep engine until the time
// is up, and checks the production outputs. A traced run also replays
// every operation through the layers' public calls.
type workload interface {
	// kind names one operation: "cell" or "campaign".
	kind() string
	// setupRound does one complete, uncached set-up: compile and verify
	// every variant and generate the inputs. Spans go under parent.
	setupRound(rec *recorder, parent int64) error
	// prepare warms the caches the production path reads and returns one
	// pass of production operations, each a distinct sweep job.
	prepare() ([]sweep.Job, error)
	// replay re-executes every operation call by call through the public
	// API of each layer, as jobs on eng, recording a span per call when
	// rec is non-nil. Only traced runs replay.
	replay(eng *sweep.Engine, rec *recorder) error
	// check validates pass-0 production outputs, one verdict per
	// operation: against the replay when there was one, and always against
	// the workload's own oracles. Extra guard operations it runs are
	// returned as attempted/failed counts.
	check(eng *sweep.Engine, prod []json.RawMessage) (ok []bool, guardRun, guardFailed int, err error)
	// qualityErr is the error, in percent, of what the workload computes:
	// WN output NRMSE for harvest cells, certified-bound slack for
	// injection campaigns. Simulated and deterministic per seed.
	qualityErr(prod []json.RawMessage) float64
	// layers derives the workload's per-layer metrics from the traced run.
	layers(st map[string]*layerStats, win window, prod []json.RawMessage, add addMetric)
}

// window is what the timed production passes measured.
type window struct {
	passes  int
	ops     int
	wall    float64   // seconds inside Engine.Run
	rss     []float64 // MiB, peak resident set of each pass
	best    []float64 // ms per operation: its fastest execution
	simWall float64   // seconds inside job closures, from sweep.Metrics
	workers int
}

// layerMetric is one per-layer metric value with the sample count behind it.
type layerMetric struct {
	value   float64
	samples int
}

// addMetric records one per-layer metric.
type addMetric func(name string, value float64, samples int)

// perLayer lists every per-layer metric and its unit, in BENCHMARK.json
// order. A traced run prints all of them; a layer a workload bypasses
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"compiler.compile_ms", "ms"},
	{"wncheck.verify_ms", "ms"},
	{"workloads.golden_ms", "ms"},
	{"energy.trace_ms", "ms"},
	{"energy.outages", "count"},
	{"energy.off_frac", "ratio"},
	{"intermittent.run_ms", "ms"},
	{"intermittent.ns_per_instr", "ns"},
	{"intermittent.overhead_ns_per_instr", "ns"},
	{"intermittent.checkpoints", "count"},
	{"intermittent.reexec_ratio", "ratio"},
	{"cpu.ns_per_instr", "ns"},
	{"mem.load_us", "us"},
	{"mem.clone_us", "us"},
	{"quality.score_us", "us"},
	{"experiments.speedup_err_pct", "%"},
	{"sweep.busy_frac", "ratio"},
	{"faultinject.cross_ms", "ms"},
	{"faultinject.cross_ns_per_kill", "ns"},
	{"faultinject.lockstep_ms", "ms"},
	{"faultinject.lockstep_ns_per_kill", "ns"},
	{"faultinject.golden_ms", "ms"},
	{"faultinject.kill_points", "count"},
	{"faultinject.kills_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// perRound reports the set-up layers: total time over all variants in
// one set-up round, averaged over rounds.
func perRound(st map[string]*layerStats, add addMetric) {
	rounds := st["setup"]
	for _, l := range [][2]string{{"compiler.compile", "compiler.compile_ms"}, {"wncheck.verify", "wncheck.verify_ms"}} {
		if s := st[l[0]]; s != nil && rounds != nil {
			add(l[1], s.Total/float64(rounds.Count)/1e6, s.Count)
		}
	}
}

// medianOf reports the median span duration of a layer, in ns/scale.
func medianOf(st map[string]*layerStats, span, name string, scale float64, add addMetric) {
	if s := st[span]; s != nil {
		add(name, median(s.Durs)/scale, s.Count)
	}
}

// perUnit is a layer's total time per unit of work, in ns.
func perUnit(st map[string]*layerStats, span string) float64 {
	if s := st[span]; s != nil && s.Work > 0 {
		return s.Total / float64(s.Work)
	}
	return 0
}

func countOf(st map[string]*layerStats, span string) int {
	if s := st[span]; s != nil {
		return s.Count
	}
	return 0
}

// atRefSpeed converts a raw value to reference host speed with the run's
// calibration factor f: times scale by f, rates by 1/f, and counts and
// ratios stay as they are.
func atRefSpeed(v float64, unit string, f float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * f
	case "1/s":
		return v / f
	}
	return v
}

// opFailure is the result a production operation records in place of an
// error, so one failing operation does not abort the engine's batch.
type opFailure struct {
	Error string `json:"error"`
}

// oracleError reports an oracle-side failure of one operation; the
// operation then counts as failed instead of aborting the run.
func oracleError(what string, spec sweep.Spec, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", what, spec, err)
}

// measure runs one benchmark run and returns its result line.
func measure(w workload, o options, out io.Writer) (result, error) {
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	fmt.Fprintf(out, "perfbench %s seed=%d workers=%d trace=%v\n", o.workload, o.seed, o.workers, o.trace)

	var setup []float64
	setupBatch := func() error {
		for start, n := now(), 0; n < minSetupRounds || seconds(start) < setupBatchSeconds; n++ {
			sp := rec.begin("setup", 0, 0)
			t := now()
			if err := w.setupRound(rec, sp.id()); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setup = append(setup, seconds(t))
			sp.end(0)
		}
		return nil
	}
	if err := setupBatch(); err != nil {
		return result{}, err
	}
	jobs, err := w.prepare()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}

	eng := sweep.New(sweep.Options{Workers: o.workers})
	cal := newCalibrator(o.workers)
	between := func() error {
		cal.sample()
		return setupBatch()
	}
	win, prod, execs, err := timedPasses(eng, jobs, w.kind(), o, rec, between)
	if err != nil {
		return result{}, err
	}
	f := cal.factor()

	// Tracing overhead: the same replay untraced, then traced.
	var overhead float64
	if o.trace {
		t := now()
		if err := w.replay(eng, nil); err != nil {
			return result{}, err
		}
		plain := seconds(t)
		t = now()
		if err := w.replay(eng, rec); err != nil {
			return result{}, err
		}
		overhead = 100 * (seconds(t) - plain) / plain
	}
	ok, guardRun, guardFailed, err := w.check(eng, prod)
	if err != nil {
		return result{}, err
	}

	attempted, failed := guardRun, guardFailed
	for i, e := range execs {
		attempted += e.matched + e.bad
		failed += e.bad
		if !ok[i] {
			failed += e.matched
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "  %d %ss x %d passes in %.3fs; %d/%d operations failed\n",
		len(jobs), w.kind(), win.passes, win.wall, failed, attempted)
	fmt.Fprintf(out, "  calibration: median %.3f ms over %d samples; times x %.4f to reference host speed (raw in brackets)\n",
		median(cal.samples), len(cal.samples), f)

	if !o.trace {
		p50, tail := quantile(win.best, 0.5), quantile(win.best, tailPct/100.0)
		e2e := []struct {
			name    string
			m       metric
			samples int
		}{
			{"setup_s", metric{median(setup), "s"}, len(setup)},
			{"max_rss_mb", metric{median(win.rss), "MB"}, len(win.rss)},
			{"ok_frac", metric{1 - float64(failed)/float64(attempted), "ratio"}, attempted},
			{"ops_per_s", metric{float64(win.ops) / win.wall, "1/s"}, win.passes},
			{"op_p50_ms", metric{p50, "ms"}, len(jobs)},
			{"op_p70_ms", metric{tail, "ms"}, len(jobs)},
			{"quality_err_pct", metric{w.qualityErr(prod), "%"}, len(prod)},
		}
		for _, e := range e2e {
			m := metric{atRefSpeed(e.m.Value, e.m.Unit, f), e.m.Unit}
			res.Metrics[e.name] = m
			report(out, e.name, m, e.m.Value, e.samples)
		}
		fmt.Fprintf(out, "  operation times: fastest of %d executions each; %d operations lie above op_p%d_ms\n",
			win.passes, countAbove(win.best, tail), tailPct)
		return res, nil
	}

	st := rec.summarize()
	got := map[string]layerMetric{}
	add := func(name string, v float64, n int) { got[name] = layerMetric{v, n} }
	perRound(st, add)
	w.layers(st, win, prod, add)
	add("sweep.busy_frac", win.simWall/(win.wall*float64(win.workers)), win.ops)
	add("trace.overhead_pct", overhead, 1)
	for _, l := range perLayer {
		lm := got[l.name]
		m := metric{atRefSpeed(lm.value, l.unit, f), l.unit}
		res.Metrics[l.name] = m
		report(out, l.name, m, lm.value, lm.samples)
	}
	fmt.Fprintf(out, "  self time per span name (ms): name, count, total, self\n")
	for _, name := range sortedKeys(st) {
		s := st[name]
		fmt.Fprintf(out, "    %-28s %7d %12.3f %12.3f\n", name, s.Count, s.Total/1e6, s.Self/1e6)
	}
	if err := rec.write(o.spans); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(rec.spans), o.spans)
	return res, nil
}

// execCount tallies one operation's executions across passes: those whose
// output equals pass 0's, and those that errored or differed.
type execCount struct{ matched, bad int }

// timedPasses runs whole passes of the production jobs, at least
// minPasses and as many more as should end within o.seconds, calling
// between after each pass; its time is not counted. Each job's time is
// measured around its Run closure, and each operation keeps its fastest
// execution; errors are captured as opFailure results so the batch always
// completes.
func timedPasses(eng *sweep.Engine, jobs []sweep.Job, kind string, o options, rec *recorder,
	between func() error) (window, []json.RawMessage, []execCount, error) {
	n := len(jobs)
	win := window{workers: eng.Workers()}
	prod := make([]json.RawMessage, n)
	execs := make([]execCount, n)
	win.best = make([]float64, n)
	simStart := eng.Metrics().SimWall
	for {
		durs := make([]float64, n)
		failed := make([]bool, n)
		wrapped := make([]sweep.Job, n)
		for i, j := range jobs {
			run := j.Run
			wrapped[i] = sweep.Job{Spec: j.Spec, Run: func() (any, error) {
				sp := rec.begin(kind, 0, int64(i+1))
				t := now()
				v, err := run()
				durs[i] = 1e3 * seconds(t)
				sp.end(0)
				if err != nil {
					failed[i] = true
					return opFailure{err.Error()}, nil
				}
				return v, nil
			}}
		}
		resetPeakRSS()
		t := now()
		raws, err := eng.Run(wrapped)
		pass := seconds(t)
		win.rss = append(win.rss, maxRSSMB())
		win.wall += pass
		if err != nil {
			return window{}, nil, nil, err
		}
		for i, raw := range raws {
			if win.passes == 0 {
				prod[i] = raw
			}
			if failed[i] || !bytes.Equal(raw, prod[i]) {
				execs[i].bad++
			} else {
				execs[i].matched++
			}
		}
		for i, d := range durs {
			if win.passes == 0 || d < win.best[i] {
				win.best[i] = d
			}
		}
		win.passes++
		win.ops += n
		if err := between(); err != nil {
			return window{}, nil, nil, err
		}
		// Start another pass only if it should end within the time.
		if win.passes >= minPasses && win.wall+pass > o.seconds {
			break
		}
	}
	win.simWall = (eng.Metrics().SimWall - simStart).Seconds()
	return win, prod, execs, nil
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set (VmHWM) at the current resident set, so that each pass reports its
// own peak: one whole-run peak depends on how garbage collections happen
// to line up with the two workers' largest operations. Where
// /proc/self/clear_refs cannot be written the count keeps running and each
// pass reports the peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// maxRSSMB is the process's peak resident set in MiB (VmHWM) since the
// last resetPeakRSS, or 0 if /proc/self/status does not report it.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// decode unmarshals a production result; false for an opFailure or bad JSON.
func decode[T any](raw json.RawMessage) (T, bool) {
	var v T
	var f opFailure
	if json.Unmarshal(raw, &f) == nil && f.Error != "" {
		return v, false
	}
	return v, json.Unmarshal(raw, &v) == nil
}
