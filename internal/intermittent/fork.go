package intermittent

import (
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
)

// ForkablePolicy is a Policy whose mid-run state can be duplicated onto a
// forked device. Fork returns an independent deep copy bound to r — its
// checkpoint snapshot, undo log, counters, and store hooks must no longer
// alias the original's. The lockstep fault injector forks a trunk device at
// every kill boundary instead of re-executing the prefix from reset.
//
// Fork must NOT re-run Attach side effects (initial checkpoint, access-set
// clearing): the forked device continues mid-run, and the cloned memory
// already carries the tracking state the policy expects.
type ForkablePolicy interface {
	Policy
	Fork(r *Runner) Policy
}

// ReplayDistancer reports how much re-execution an outage at the current
// instruction boundary costs, in pure CPU cycles (the sum of Cost.Cycles
// since the instruction the restore path resumes at). Checkpointing
// policies return the distance back to their live checkpoint, a reboot
// from the entry point (Restart) the distance back to the run start or
// the last restore, and an in-place resume (NVP) 0. The lockstep injector
// uses it to bound how far a forked run must execute before it can be
// compared against the trunk.
type ReplayDistancer interface {
	ReplayDistance() uint64
}

// Fork duplicates the runner onto an already-cloned device. The caller
// supplies the forked CPU (cpu.Fork), memory (mem.Clone), and a fresh
// supply; the policy is deep-copied via ForkablePolicy. Returns false when
// the attached policy does not support forking, in which case the caller
// must fall back to building the target state from reset.
func (r *Runner) Fork(c *cpu.CPU, m *mem.Memory, s *energy.Supply) (*Runner, bool) {
	fp, ok := r.Policy.(ForkablePolicy)
	if !ok {
		return nil, false
	}
	n := &Runner{
		CPU:           c,
		Mem:           m,
		Supply:        s,
		MaxCycles:     r.MaxCycles,
		Reference:     r.Reference,
		pendingCycles: r.pendingCycles,
		pendingEnergy: r.pendingEnergy,
		skimTaken:     r.skimTaken,
	}
	n.Policy = fp.Fork(n)
	return n, true
}

// Fork implements ForkablePolicy: the checkpoint snapshot is a value, so a
// struct copy suffices; only the runner binding and the store hook need
// rebuilding.
func (c *Clank) Fork(r *Runner) Policy {
	n := *c
	n.r = r
	r.CPU.BeforeStore = func(addr uint32, size int) {
		if r.Mem.WouldViolate(addr, size) {
			n.takeCheckpoint()
			n.ViolationCheckpoints++
		}
	}
	return &n
}

// ReplayDistance implements ReplayDistancer: an outage rewinds to the live
// checkpoint, re-executing everything since it.
func (c *Clank) ReplayDistance() uint64 { return c.sinceCheckpoint }

// Fork implements ForkablePolicy. NVP keeps no per-run mutable state beyond
// the runner binding.
func (n *NVP) Fork(r *Runner) Policy {
	f := *n
	f.r = r
	r.CPU.BeforeStore = nil
	return &f
}

// ReplayDistance implements ReplayDistancer: NVP resumes in place.
func (n *NVP) ReplayDistance() uint64 { return 0 }

// Fork implements ForkablePolicy.
func (n *Naive) Fork(r *Runner) Policy {
	f := *n
	f.r = r
	return &f
}

// ReplayDistance implements ReplayDistancer.
func (n *Naive) ReplayDistance() uint64 { return n.sinceCheckpoint }

// Fork implements ForkablePolicy: the undo log and its dedup set are deep
// copied — the fork's rollback must not be visible to the original.
func (u *UndoLog) Fork(r *Runner) Policy {
	n := *u
	n.r = r
	n.log = append([]undoEntry(nil), u.log...)
	n.logged = make(map[uint32]struct{}, len(u.logged))
	for wa := range u.logged {
		n.logged[wa] = struct{}{}
	}
	r.CPU.BeforeStore = n.beforeStore
	return &n
}

// ReplayDistance implements ReplayDistancer.
func (u *UndoLog) ReplayDistance() uint64 { return u.sinceCheckpoint }

// Fork implements ForkablePolicy: Restart keeps only counters, so a struct
// copy suffices; it installs no store hook.
func (p *Restart) Fork(r *Runner) Policy {
	n := *p
	n.r = r
	r.CPU.BeforeStore = nil
	return &n
}

// ReplayDistance implements ReplayDistancer: a restore reboots from the
// entry point, replaying everything since the run started or the last
// restore.
func (p *Restart) ReplayDistance() uint64 { return p.sinceRestore }
