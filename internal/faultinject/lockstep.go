package faultinject

import (
	"fmt"
	"sort"

	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// RunLockstep executes the same campaign as Run with the same Report, but
// batches the schedule through one shared trunk execution instead of one
// full re-execution per kill point.
//
// The naive campaign costs O(points x program length): every injected run
// re-executes the prefix up to its kill point and the suffix after it,
// even though the prefix is identical to the golden run by construction
// and the suffix is identical whenever the restore path re-converges. The
// lockstep engine exploits both halves:
//
//   - Prefix sharing: one trunk device executes the golden path once. At
//     each kill boundary (visited in ascending order) the trunk is forked —
//     memory is deep-copied, the CPU shares the trunk's decode cache and
//     block-mode closures, and the policy state (checkpoint, undo log)
//     is duplicated — and the forced failure/restore round trip is applied
//     to the fork only.
//
//   - Convergence detection: after restore, a checkpointing policy
//     re-executes at most ReplayDistance cycles before it is back at the
//     kill boundary. The fork runs exactly that far; if its architectural
//     state and memory then match the trunk's (which IS the golden state at
//     that boundary), the remainder of the run is deterministic and
//     identical to the golden suffix, so the fork is clean and is
//     discarded without executing it. Only forks that fail to re-converge —
//     actual crash-consistency violations, skim-point jumps, or memo-induced
//     cycle drift — run to halt and are diffed like any naive injected run.
//
// The fallback is total: a policy that does not implement
// intermittent.ForkablePolicy and intermittent.ReplayDistancer runs one
// injected run per kill point, exactly as Run does. Reports are identical
// to Run's in every field either way.
func RunLockstep(t Target, cfg Config, sched Schedule) (*Report, error) {
	return campaign(t, cfg, sched, false)
}

// inject resolves the injected run for each of kills (pure CPU cycles, in
// any order), calling visit once per kill with its index and outcome. A
// nil outcome means the run provably ends exactly as the uninterrupted
// policy run does; visit must not keep the outcome's data, whose buffer
// the next run reuses. onKill, when non-nil, runs on the device's memory right
// after each forced failure.
//
// With naive set, or when the policy cannot fork, every kill gets its own
// run from reset (runOnce) and visit sees kills in the given order.
// Otherwise one dirty-tracked trunk walks the kills in ascending cycle
// order and each is resolved on a fork of it; the trunk is returned,
// stopped at the last kill, for a caller that needs the uninterrupted
// outcome the nil results stand for. goldenCycles is the uninterrupted
// run's length, which bounds the forks' convergence shortcut.
func inject(t Target, cfg Config, kills []uint64, goldenCycles uint64, onKill func(*mem.Memory), naive bool,
	visit func(i int, got *runResult)) (*device, error) {
	var buf []byte // NV data of the last finished run, reused by the next
	if naive || !forkable(cfg.Policy()) {
		for i, kill := range kills {
			got, err := runOnce(t, cfg, kill, cfg.Budget, nil, onKill, buf)
			if err != nil {
				return nil, fmt.Errorf("kill at cycle %d: %w", kill, err)
			}
			if got.data != nil {
				buf = got.data
			}
			visit(i, &got)
		}
		return nil, nil
	}

	trunk, err := newDevice(t, cfg)
	if err != nil {
		return nil, fmt.Errorf("trunk: %w", err)
	}
	// Dirty-extent tracking turns per-kill-point fork costs from
	// O(memory size) into O(bytes touched): the first fork deep-copies,
	// and each later kill point re-syncs that same child device by copying
	// only what either side wrote since the previous sync.
	trunk.m.SetDirtyTracking(true)
	trunk.tracked = true
	order := make([]int, len(kills))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return kills[order[a]] < kills[order[b]] })
	var spare *device
	for _, i := range order {
		kill := kills[i]
		// Advance the trunk to the first instruction boundary at or past
		// the kill cycle — exactly where runOnce would force the failure.
		if err := trunk.runTo(kill, cfg.Budget, nil); err != nil {
			return nil, fmt.Errorf("kill at cycle %d: %w", kill, err)
		}
		if trunk.c.Halted || trunk.cycles > cfg.Budget {
			// runOnce never injects here: the run is the uninterrupted one.
			visit(i, nil)
			continue
		}
		var (
			child *device
			ok    bool
		)
		if spare == nil {
			trunk.m.ResetDirty()
			child, ok = trunk.fork()
		} else {
			child, ok = trunk.forkInto(spare)
		}
		if !ok {
			return nil, fmt.Errorf("policy %s lost forkability mid-run", trunk.policy.Name())
		}
		spare = child
		got, err := child.finish(trunk, goldenCycles, cfg.Budget, onKill, buf)
		if err != nil {
			return nil, fmt.Errorf("kill at cycle %d: %w", kill, err)
		}
		if got != nil && got.data != nil {
			buf = got.data
		}
		visit(i, got)
	}
	return trunk, nil
}

// forkable reports whether the policy supports trunk forking and replay
// bounding.
func forkable(p intermittent.Policy) bool {
	_, f := p.(intermittent.ForkablePolicy)
	_, d := p.(intermittent.ReplayDistancer)
	return f && d
}

// normalize fills the Config defaults exactly as Run does.
func normalize(cfg *Config) {
	if cfg.Mem == (mem.Config{}) {
		cfg.Mem = mem.DefaultConfig()
	}
	if cfg.Device == (energy.DeviceConfig{}) {
		cfg.Device = energy.DefaultDeviceConfig()
	}
}

// finish applies the forced failure (then onKill, if any) to a freshly
// forked child and resolves its outcome. It returns nil when the child
// provably re-converges with the trunk (final memory identical to the
// uninterrupted run's), or the child's full run result for the caller to
// diff, its NV data in buf when buf is large enough.
func (d *device) finish(trunk *device, goldenCycles, budget uint64, onKill func(*mem.Memory), buf []byte) (*runResult, error) {
	dist := d.policy.(intermittent.ReplayDistancer).ReplayDistance()
	d.r.ForceFailure()

	if onKill != nil {
		// The fork's input words now differ from the trunk's, so it can
		// never re-converge: skip the probe and run it straight to halt.
		onKill(d.m)
	} else if goldenCycles+dist+cpu.MaxInstrCycles <= budget {
		// The convergence shortcut is only sound comfortably inside the
		// budget: near the line, whether the re-executed run halts before
		// exceeding it depends on sub-window boundaries, so defer to a
		// full run.
		target := d.cycles + dist
		if err := d.runTo(target, budget, nil); err != nil {
			return nil, err
		}
		if !d.c.Halted && d.cycles == target && d.converged(trunk) {
			return nil, nil
		}
	}
	if err := d.runTo(noKill, budget, nil); err != nil {
		return nil, err
	}
	res, err := d.result(buf)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// converged reports whether the child's architectural state and memory
// match the trunk's at the same pure-cycle instruction boundary. Stats,
// tracking shadow state, and policy-internal counters are excluded: they
// affect overhead accounting, never the data a deterministic continuation
// computes.
func (d *device) converged(trunk *device) bool {
	c, tc := d.c, trunk.c
	if c.Regs != tc.Regs ||
		c.N != tc.N || c.Z != tc.Z || c.C != tc.C || c.V != tc.V ||
		c.SkimArmed != tc.SkimArmed || c.SkimTarget != tc.SkimTarget {
		return false
	}
	if d.tracked && trunk.tracked {
		// Both memories were byte-identical at the fork's last sync and each
		// side has recorded every write since, so comparing the union of the
		// two dirty extents is a full state-equality test.
		return d.m.EqualWithin(trunk.m, d.m.Dirty().Union(trunk.m.Dirty()))
	}
	return d.m.StateEqual(trunk.m)
}
