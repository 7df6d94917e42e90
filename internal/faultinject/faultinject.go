// Package faultinject is the dynamic half of the crash-consistency
// contract: a systematic power-failure injector over the batched stepper.
//
// For every scheduled kill point it executes the target program on a fresh
// device, forces a full power-failure/restore round trip through the
// configured intermittent runtime at the exact instruction boundary, lets
// the run finish, and differentially compares the final non-volatile data
// region against an uninterrupted golden run. Any difference — a differing
// word, or a run that no longer halts within budget — is a witnessed
// crash-consistency violation, reported with the cycle of failure and the
// first differing word.
//
// Kill points are expressed in pure CPU cycles (the sum of per-instruction
// Cost.Cycles), independent of runtime overhead charges, so a schedule
// derived from the golden run lands on the same instruction boundaries in
// the injected runs. The static analysis in internal/wncheck (WN103,
// WN104 under Options.Crash) is the other half of the contract: programs
// it certifies clean must show zero divergence here, and programs it flags
// must produce a divergence the injector can point to. The tests in this
// package assert both directions.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// Config selects the runtime model and device under test.
type Config struct {
	// Policy builds a fresh intermittent runtime per run (each run needs
	// its own checkpoint state). Required.
	Policy func() intermittent.Policy
	// Mem overrides the memory geometry; the zero value means
	// mem.DefaultConfig().
	Mem mem.Config
	// Device overrides the energy device; the zero value means
	// energy.DefaultDeviceConfig(). Only the NV-write energy figure is
	// consulted — the injector kills power explicitly rather than through
	// the harvesting model.
	Device energy.DeviceConfig
	// Budget bounds the active cycles of any single run, the golden run
	// included; zero bounds the golden run by goldenGuard and derives the
	// injected runs' bound as 4x the golden run plus slack. A golden run
	// that exceeds it is an error; an injected run that exceeds it has
	// lost forward progress, which counts as a divergence.
	Budget uint64
}

// goldenGuard bounds a golden run when Config.Budget is zero. It sits
// above every shipped kernel's golden run (the longest, paper-size
// Conv2d, certifies under 6e7 cycles) and bounds the per-instruction
// trace a golden pass records, so a program that never halts fails in
// bounded time and memory.
const goldenGuard = uint64(1) << 27

// goldenBudget is the cycle bound of a golden (uninterrupted) run.
func (cfg Config) goldenBudget() uint64 {
	if cfg.Budget != 0 {
		return cfg.Budget
	}
	return goldenGuard
}

// errNoHalt reports a golden run that exhausted its cycle bound.
func errNoHalt(budget uint64) error {
	return fmt.Errorf("did not halt within %d cycles", budget)
}

// Schedule picks the kill points.
type Schedule struct {
	// Exhaustive kills power at every instruction boundary of the golden
	// run (including cycle 0, before the first instruction).
	Exhaustive bool
	// MaxPoints caps an exhaustive schedule; beyond it the boundaries are
	// sampled evenly. Zero means no cap.
	MaxPoints int
	// Points, when not exhaustive, kills at Points cycle offsets spread
	// evenly across the golden run: k*total/(Points+1) for k = 1..Points.
	Points int
}

// Divergence is one witnessed crash-consistency violation.
type Divergence struct {
	KillCycle       uint64 // CPU cycle at which power was killed
	KillInstruction uint64 // instructions retired before the kill
	Halted          bool   // false: the injected run exceeded the budget
	Addr            uint32 // first differing NV data word (when Halted)
	Got, Want       uint32 // its value in the injected vs golden run
	Words           int    // total differing words
}

func (d Divergence) String() string {
	if !d.Halted {
		return fmt.Sprintf("kill at cycle %d (instruction %d): run lost forward progress (budget exceeded)",
			d.KillCycle, d.KillInstruction)
	}
	return fmt.Sprintf("kill at cycle %d (instruction %d): %d differing words, first at %#08x: got %#x want %#x",
		d.KillCycle, d.KillInstruction, d.Words, d.Addr, d.Got, d.Want)
}

// Report summarizes one injection campaign.
type Report struct {
	Target             string
	Policy             string
	GoldenCycles       uint64 // pure CPU cycles of the uninterrupted run
	GoldenInstructions uint64
	Points             int      // kill points actually injected
	StrideCycles       uint64   // mean cycle distance between kill points
	Schedule           []uint64 // the exact kill cycles, in injection order
	Divergences        []Divergence
}

// Clean reports whether every injected run reproduced the golden memory.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

func (r *Report) String() string {
	head := fmt.Sprintf("faultinject: %s under %s: %d kill points over %d cycles (stride ~%d)",
		r.Target, r.Policy, r.Points, r.GoldenCycles, r.StrideCycles)
	if r.Clean() {
		return head + ": clean"
	}
	return fmt.Sprintf("%s: %d DIVERGENT — first: %s", head, len(r.Divergences), r.Divergences[0])
}

// Run executes the campaign: one golden run, then one injected run per
// scheduled kill point. Errors are infrastructure failures (a program that
// faults or cannot finish even uninterrupted); divergences are reported in
// the Report, not as errors.
func Run(t Target, cfg Config, sched Schedule) (*Report, error) {
	return campaign(t, cfg, sched, true)
}

// campaign is Run (naive) or RunLockstep: the golden pass, then every
// scheduled kill resolved through inject and diffed against golden.
func campaign(t Target, cfg Config, sched Schedule, naive bool) (*Report, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("faultinject: Config.Policy is required")
	}
	normalize(&cfg)
	golden, points, rep, err := plan(t, &cfg, sched)
	if err != nil {
		return nil, err
	}

	kills := make([]uint64, len(points))
	for i, kill := range points {
		kills[i] = kill.cycle
		rep.Schedule = append(rep.Schedule, kill.cycle)
	}
	// The schedule ascends, so both engines visit kills in report order.
	_, err = inject(t, cfg, kills, golden.cycles, nil, naive, func(i int, got *runResult) {
		if got == nil {
			return // the uninterrupted run: golden by definition
		}
		if d, diverged := diff(points[i], &golden, got); diverged {
			rep.Divergences = append(rep.Divergences, d)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", t.Name, err)
	}
	return rep, nil
}

// plan runs the golden pass both engines share, bounded by
// cfg.goldenBudget; derives the injected runs' budget when unset; and lays
// out the kill schedule and the report header.
func plan(t Target, cfg *Config, sched Schedule) (runResult, []killPoint, *Report, error) {
	var costs []uint8
	golden, err := runOnce(t, *cfg, noKill, cfg.goldenBudget(), &costs, nil, nil)
	if err == nil && !golden.halted {
		err = errNoHalt(cfg.goldenBudget())
	}
	if err != nil {
		return runResult{}, nil, nil, fmt.Errorf("faultinject: %s: golden run: %w", t.Name, err)
	}
	if cfg.Budget == 0 {
		cfg.Budget = 4*golden.cycles + 65536
	}

	points := killPoints(costs, golden.cycles, sched)
	rep := &Report{
		Target:             t.Name,
		Policy:             cfg.Policy().Name(),
		GoldenCycles:       golden.cycles,
		GoldenInstructions: golden.instrs,
		Points:             len(points),
	}
	if n := len(points); n > 0 {
		rep.StrideCycles = golden.cycles / uint64(n)
	}
	return golden, points, rep, nil
}

// killPoint is one scheduled failure: a cycle count and, for reporting,
// the number of instructions retired when it is reached.
type killPoint struct {
	cycle uint64
	instr uint64
}

// killPoints derives the schedule from the golden run's per-instruction
// costs. Boundaries are the cumulative cycle counts after each instruction;
// the boundary after the final instruction (HALT) is excluded — the run is
// already over.
func killPoints(costs []uint8, total uint64, sched Schedule) []killPoint {
	if !sched.Exhaustive {
		var pts []killPoint
		n := uint64(sched.Points)
		for k := uint64(1); k <= n; k++ {
			c := k * total / (n + 1)
			pts = append(pts, killPoint{cycle: c, instr: instructionAt(costs, c)})
		}
		return pts
	}
	bounds := []killPoint{{cycle: 0, instr: 0}}
	var cum uint64
	for i, co := range costs {
		if i == len(costs)-1 {
			break
		}
		cum += uint64(co)
		bounds = append(bounds, killPoint{cycle: cum, instr: uint64(i + 1)})
	}
	if sched.MaxPoints > 0 && len(bounds) > sched.MaxPoints {
		sampled := make([]killPoint, sched.MaxPoints)
		for i := range sampled {
			sampled[i] = bounds[i*len(bounds)/sched.MaxPoints]
		}
		return sampled
	}
	return bounds
}

// instructionAt counts the instructions fully retired before cycle c.
func instructionAt(costs []uint8, c uint64) uint64 {
	var cum, n uint64
	for _, co := range costs {
		if cum >= c {
			break
		}
		cum += uint64(co)
		n++
	}
	return n
}

// diff compares an injected run against the golden run.
func diff(kill killPoint, golden, got *runResult) (Divergence, bool) {
	if !got.halted {
		return Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr}, true
	}
	if bytes.Equal(golden.data, got.data) {
		return Divergence{}, false
	}
	d := Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr, Halted: true}
	wordDiff(&d, golden.data, got.data)
	return d, d.Words > 0
}

// wordDiff records in d how many 32-bit words of the NV data image got
// differ from want, and the first of them. Equal stretches are skipped a
// block at a time, so the cost follows the extent of the difference more
// than the size of the region.
func wordDiff(d *Divergence, want, got []byte) {
	const block = 256
	for lo := 0; lo < len(want); lo += block {
		hi := min(lo+block, len(want))
		if bytes.Equal(want[lo:hi], got[lo:hi]) {
			continue
		}
		for off := lo; off+4 <= hi; off += 4 {
			w := binary.LittleEndian.Uint32(want[off:])
			g := binary.LittleEndian.Uint32(got[off:])
			if w == g {
				continue
			}
			if d.Words == 0 {
				d.Addr = mem.DataBase + uint32(off)
				d.Got, d.Want = g, w
			}
			d.Words++
		}
	}
}
