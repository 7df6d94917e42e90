package cpu

import (
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// StopReason tells why Run returned control to the caller.
type StopReason int

const (
	// StopBudget: the accumulated cycle count reached the budget.
	StopBudget StopReason = iota
	// StopHalt: the program executed HALT (or the CPU was already halted).
	StopHalt
	// StopStore: the next instruction is a store into the non-volatile data
	// region and a BeforeStore hook is installed; the caller must execute it
	// through Step so the hook observes it.
	StopStore
	// StopSkim: an SKM instruction just executed. Callers that react to
	// skim-point arming (anytime harnesses) see it at the exact instruction
	// boundary the reference path would.
	StopSkim
	// StopFault: execution faulted; the accompanying error has the cause.
	StopFault
)

// BatchResult summarizes one Run window.
type BatchResult struct {
	Cycles       uint64
	Instructions uint64
	Reason       StopReason
}

// MaxInstrCycles bounds the cycle cost of any single instruction (the
// 16-cycle iterative multiply; taken branches cost BaseCycles+1 ≤ 3).
// Batch schedulers use it to size safety slack: Run stops at the first
// instruction that reaches its budget, so it overshoots by less than this.
const MaxInstrCycles = 16

// Run is the batched executor: it executes instructions until the
// accumulated cycle count reaches budget, the program halts or faults, an
// SKM arms the skim register, or (when a BeforeStore hook is installed) the
// next instruction would store into the non-volatile data region.
// Architectural state, Stats, and memory evolve exactly as under repeated
// Step calls, and a window overshoots its budget by at most
// MaxInstrCycles-1 cycles. When costs is non-nil every instruction's Cost
// is appended so the caller can settle energy accounting in instruction
// order.
//
// The hook contract differs from Step by design: Run never calls
// BeforeStore. It returns StopStore *before* the store executes, and the
// caller runs that one instruction through Step. Stores outside the NV data
// region execute inline without the hook — the runtimes in
// internal/intermittent only act on NV-data stores, so runtime-visible
// behavior is identical.
//
// Execution is block mode wherever possible: when the run starting at PC
// (see slot) fits the remaining budget in the worst case, its closures
// execute back to back and the run is charged in O(1), with its OpCount
// deferred to the window's end. A store that faults or needs the hook ends
// the block early; the executed prefix is charged exactly as Step would
// have charged it. Everything else — budget tails, HALT, SKM, PC operands,
// undecodable slots, and memoized multiplies while costs are recorded (their
// cycles are data-dependent) — takes the per-instruction path through
// execute, the same code Step runs.
func (c *CPU) Run(budget uint64, costs *[]Cost) (BatchResult, error) {
	var res BatchResult
	if c.Halted {
		res.Reason = StopHalt
		return res, nil
	}
	if err := c.ensureDecodeCache(); err != nil {
		res.Reason = StopFault
		return res, err
	}
	img := c.img
	if len(c.runs) != len(img.slots) {
		c.runs = make([]uint64, len(img.slots))
		c.dirty = c.dirty[:0]
	}
	c.hookSpan = 0
	if c.BeforeStore != nil {
		c.hookSpan = uint32(c.Mem.Config().DataBytes)
	}

	var (
		slots = img.slots
		m     = c.Mem
		regs  = &c.Regs
		// With costs recorded, memoized multiplies run one at a time.
		stepMul = costs != nil && c.Memo != nil
		// Cycle and instruction counts accumulate in scalar locals and flush
		// to res and c.Stats at the single exit below.
		cycAcc, instrAcc, amenAcc uint64
		reason                    = StopBudget
		fault                     error
	)

	// pc mirrors regs[isa.PC] in a local; the register-file slot is stored
	// at every instruction or block boundary.
	pc := regs[isa.PC]
	for cycAcc < budget {
		idx := (pc - mem.CodeBase) / isa.InstBytes
		if pc%isa.InstBytes != 0 || idx >= uint32(len(slots)) {
			// Out of the decoded image or misaligned: decodeAt builds the
			// precise fault message.
			_, fault = c.decodeAt(pc)
			reason = StopFault
			break
		}
		s := &slots[idx]

		if s.instrs == 0 || cycAcc+uint64(s.worst) > budget || (stepMul && s.hasMul) {
			// Per-instruction path.
			in := s.in
			if !in.Op.Valid() {
				_, fault = c.decodeAt(pc)
				reason = StopFault
				break
			}
			if in.Op.IsStore() && c.effAddr(in)-mem.DataBase < c.hookSpan {
				reason = StopStore
				break
			}
			if s.amen {
				amenAcc++
			}
			nv := m.NVWrites
			nextPC, cycles, err := c.execute(in, pc, false)
			if err != nil {
				reason = StopFault
				fault = err
				break
			}
			regs[isa.PC] = nextPC
			pc = nextPC
			c.Stats.OpCount[in.Op]++
			cycAcc += uint64(cycles)
			instrAcc++
			if costs != nil {
				cost := Cost{Cycles: cycles, NVWrites: int(m.NVWrites - nv)}
				if in.Op == isa.OpSkm {
					cost.NVWrites++ // the skim register is non-volatile
				}
				*costs = append(*costs, cost)
			}
			if in.Op == isa.OpHalt {
				reason = StopHalt
				break
			}
			if in.Op == isa.OpSkm {
				reason = StopSkim
				break
			}
			continue
		}

		// Block mode: run the closures of the run starting at idx back to
		// back — and while its terminator branches back to its own head and
		// the next pass still fits, iterate without re-entering the gates.
		startPC, body := pc, img.body[idx:s.end]
		var iters uint64
		base, stop := 0, -1
		for {
			if costs != nil {
				base = len(*costs)
				*costs = append(*costs, img.costs[idx:s.end]...)
				if s.hasStore {
					c.nvRec, c.nvBase = (*costs)[base:], idx
				}
			}
			c.blockAdj = 0
			for i, f := range body {
				if !f(c) {
					stop = i
					break
				}
			}
			if stop >= 0 {
				break
			}
			cycAcc += uint64(s.runCycles) - c.blockAdj
			iters++
			if s.term != nil {
				nextPC, cycles := s.term(c)
				cycAcc += uint64(cycles)
				if costs != nil {
					*costs = append(*costs, Cost{Cycles: cycles})
				}
				pc = nextPC
			} else {
				pc = mem.CodeBase + s.end*isa.InstBytes
			}
			if pc != startPC || cycAcc+uint64(s.worst) > budget {
				break
			}
		}
		c.nvRec = nil
		if iters > 0 {
			if c.runs[idx] == 0 {
				c.dirty = append(c.dirty, idx)
			}
			c.runs[idx] += iters
		}

		if stop >= 0 {
			// Closure stop at body index stop: charge the executed prefix
			// exactly as Step would have (the aggregates are suffix sums),
			// and park PC on the stopping instruction.
			at := idx + uint32(stop)
			for i := idx; i < at; i++ {
				c.Stats.OpCount[slots[i].in.Op]++
			}
			cycAcc += uint64(s.runCycles-slots[at].runCycles) - c.blockAdj
			instrAcc += uint64(stop)
			amenAcc += uint64(s.runAmen - slots[at].runAmen)
			if costs != nil {
				*costs = (*costs)[:base+stop]
			}
			pc = startPC + uint32(stop)*isa.InstBytes
			regs[isa.PC] = pc
			if c.blockErr == errNVStore {
				reason = StopStore
			} else {
				// Step tallies the amenable mark before executing.
				if slots[at].amen {
					amenAcc++
				}
				reason = StopFault
				fault = c.blockErr
			}
			c.blockErr = nil
			break
		}
		regs[isa.PC] = pc
	}

	instrs, amen := c.flushRuns()
	res.Cycles = cycAcc
	res.Instructions = instrAcc + instrs
	res.Reason = reason
	c.Stats.Cycles += cycAcc
	c.Stats.Instructions += instrAcc + instrs
	c.Stats.AmenableOps += amenAcc + amen
	return res, fault
}

// flushRuns applies the window's deferred block tallies to Stats.OpCount,
// clears them, and returns the instructions and amenable marks they cover.
func (c *CPU) flushRuns() (instrs, amen uint64) {
	slots := c.img.slots
	for _, idx := range c.dirty {
		n := c.runs[idx]
		c.runs[idx] = 0
		s := &slots[idx]
		for i := idx; i < s.end; i++ {
			c.Stats.OpCount[slots[i].in.Op] += n
		}
		if s.term != nil {
			c.Stats.OpCount[slots[s.end].in.Op] += n
		}
		instrs += uint64(s.instrs) * n
		amen += uint64(s.runAmen) * n
	}
	c.dirty = c.dirty[:0]
	return instrs, amen
}
