package cpu

import (
	"errors"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// image is everything the executor derives from the loaded program image
// and the amenable set: the decoded slots, a closure per straight-line slot
// and the aggregates of the run starting at each slot. It depends on no
// register or memory state and is immutable once built, so forked CPUs
// share one instance.
type image struct {
	slots []slot
	body  []func(*CPU) bool // straight-line closure per slot; nil where the slot has none
	costs []Cost            // static cost record per slot, appended in bulk by block mode
	errs  map[int]error     // slot -> original isa.Decode failure
}

// slot is one predecoded instruction plus the aggregates of the run that
// starts at it. A run is the longest straight line of body closures from
// the slot, closed by the following branch when that has a terminator
// closure. Every slot, including a computed BX target, can start a block,
// so no control-flow graph is needed.
type slot struct {
	in   isa.Instruction
	term func(*CPU) (uint32, uint32) // the run's terminator: (nextPC, cycles); nil if none

	cycles    uint32 // base cycle cost
	end       uint32 // one past the run's last body slot; the terminator's slot
	instrs    uint32 // instructions in the run, terminator included; 0: no run
	runAmen   uint32 // amenable marks in the run
	runCycles uint32 // static cycles of the run's body
	worst     uint32 // runCycles plus the terminator's worst case
	amen      bool   // slot carries the compiler's amenable mark
	hasStore  bool   // the body stores (NV-write deltas, hook stops)
	hasMul    bool   // the body multiplies (memo cycles are data-dependent)
}

// errNVStore is the block-mode stop signal of a store closure that reached
// the non-volatile data region while a BeforeStore hook is installed.
var errNVStore = errors.New("cpu: NV data store needs the BeforeStore hook")

// newImage decodes words, builds each slot's closures and, in one backward
// pass, each slot's run aggregates. Undecodable words get an
// invalid-opcode sentinel, with the decode failure kept in errs so a later
// fault reports the cause.
func newImage(words []uint32, amenableAt func(pc uint32) bool) *image {
	n := len(words)
	img := &image{
		slots: make([]slot, n),
		body:  make([]func(*CPU) bool, n),
		costs: make([]Cost, n),
		errs:  make(map[int]error),
	}
	for i := n - 1; i >= 0; i-- {
		s := &img.slots[i]
		pc := mem.CodeBase + uint32(i*isa.InstBytes)
		in, err := isa.Decode(isa.Word(words[i]))
		if err != nil {
			s.in = isa.Instruction{Op: isa.Opcode(0xFF)}
			s.end = uint32(i)
			img.errs[i] = err
			continue
		}
		s.in, s.cycles, s.amen = in, in.Op.BaseCycles(), amenableAt(pc)
		img.costs[i] = Cost{Cycles: s.cycles}
		amen := uint32(0)
		if s.amen {
			amen = 1
		}
		if fn := buildBodyFn(in, uint32(i)); fn != nil {
			img.body[i] = fn
			next := slot{end: uint32(n)}
			if i+1 < n {
				next = img.slots[i+1]
			}
			s.term, s.end = next.term, next.end
			s.instrs = next.instrs + 1
			s.runAmen = next.runAmen + amen
			s.runCycles = next.runCycles + s.cycles
			s.worst = next.worst + s.cycles
			s.hasStore = next.hasStore || in.Op.IsStore()
			s.hasMul = next.hasMul || in.Op.IsMul()
		} else if term, worst := buildTerm(in, pc); term != nil {
			s.term, s.end, s.instrs, s.runAmen, s.worst = term, uint32(i), 1, amen, worst
		} else {
			s.end = uint32(i) // HALT, SKM, PC operands: the per-instruction path
		}
	}
	return img
}

// usesRn reports whether the opcode reads its Rn operand.
func usesRn(op isa.Opcode) bool {
	switch {
	case op >= isa.OpAdd && op <= isa.OpSubIS: // three-operand ALU, CMP forms
		return true
	case op == isa.OpMul:
		return true
	case op.IsLoad() || op.IsStore():
		return true
	}
	return false
}

// bodyUsesPC reports whether the instruction reads or writes PC through an
// operand it actually uses. Such instructions take the per-instruction path:
// a block keeps PC in a local and only writes the register-file slot at
// block exit, so a mid-block PC operand would observe a stale value.
func bodyUsesPC(in isa.Instruction) bool {
	switch in.Op {
	case isa.OpNop:
		return false
	case isa.OpCmp:
		return in.Rn == isa.PC || in.Rm == isa.PC
	case isa.OpCmpI:
		return in.Rn == isa.PC
	}
	if in.Rd == isa.PC {
		return true
	}
	if usesRn(in.Op) && in.Rn == isa.PC {
		return true
	}
	if in.Op.HasRm() && in.Rm == isa.PC {
		return true
	}
	return false
}

// buildBodyFn compiles one straight-line instruction into a closure over its
// operand indices (masked, proving them in-range so the bounds checks
// vanish). Returns nil for instructions that take the per-instruction path:
// branches (fused separately as terminators), HALT, SKM, invalid slots, and
// PC-relative operands. Memory faults are parked in c.blockErr and
// signalled by returning false; so is a store that needs the BeforeStore
// hook (errNVStore). While the block records costs, a store at slot i
// writes its NV-write delta into its own cost record.
//
// The closures mirror (*CPU).execute case for case — the differential tests
// and FuzzRunMatchesStep pin Run to Step's architectural state, Stats,
// cycle counts and cost stream.
func buildBodyFn(in isa.Instruction, i uint32) func(*CPU) bool {
	op := in.Op
	if !op.Valid() || op.IsBranch() || op == isa.OpHalt || op == isa.OpSkm {
		return nil
	}
	if bodyUsesPC(in) {
		return nil
	}
	rd := int(in.Rd) & 15
	rn := int(in.Rn) & 15
	rm := int(in.Rm) & 15
	imm := uint32(in.Imm)

	switch op {
	case isa.OpNop:
		return func(*CPU) bool { return true }

	case isa.OpMov:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rm]; return true }
	case isa.OpMovI:
		return func(c *CPU) bool { c.Regs[rd] = imm; return true }
	case isa.OpMovTI:
		hi := imm << 16
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rd]&0xFFFF | hi; return true }

	case isa.OpAdd:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] + c.Regs[rm]; return true }
	case isa.OpAddI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] + imm; return true }
	case isa.OpSub:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] - c.Regs[rm]; return true }
	case isa.OpSubI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] - imm; return true }
	case isa.OpAnd:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] & c.Regs[rm]; return true }
	case isa.OpAndI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] & imm; return true }
	case isa.OpOrr:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] | c.Regs[rm]; return true }
	case isa.OpOrrI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] | imm; return true }
	case isa.OpEor:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] ^ c.Regs[rm]; return true }
	case isa.OpEorI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] ^ imm; return true }
	case isa.OpLsl:
		return func(c *CPU) bool { c.Regs[rd] = shiftL(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpLslI:
		return func(c *CPU) bool { c.Regs[rd] = shiftL(c.Regs[rn], imm); return true }
	case isa.OpLsr:
		return func(c *CPU) bool { c.Regs[rd] = shiftR(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpLsrI:
		return func(c *CPU) bool { c.Regs[rd] = shiftR(c.Regs[rn], imm); return true }
	case isa.OpAsr:
		return func(c *CPU) bool { c.Regs[rd] = shiftAR(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpAsrI:
		return func(c *CPU) bool { c.Regs[rd] = shiftAR(c.Regs[rn], imm); return true }

	case isa.OpCmp:
		return func(c *CPU) bool { c.setFlagsSub(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpCmpI:
		return func(c *CPU) bool { c.setFlagsSub(c.Regs[rn], imm); return true }
	case isa.OpSubIS:
		return func(c *CPU) bool {
			a := c.Regs[rn]
			c.setFlagsSub(a, imm)
			c.Regs[rd] = a - imm
			return true
		}

	case isa.OpMul:
		// Static cost is 16 cycles; a memo fast hit costs 1, recorded as a
		// 15-cycle discount in blockAdj (the block subtracts it afterwards).
		return func(c *CPU) bool {
			a, b := c.Regs[rn], c.Regs[rm]
			prod := a * b
			if c.Memo != nil {
				var fast bool
				prod, fast = c.mulWithMemo(a, b)
				if fast {
					c.blockAdj += MaxInstrCycles - 1
				}
			}
			c.Regs[rd] = prod
			return true
		}

	case isa.OpMulASP1, isa.OpMulASP2, isa.OpMulASP3, isa.OpMulASP4, isa.OpMulASP8:
		sh := uint32(op.ASPBits()) * imm
		discount := uint64(op.BaseCycles() - 1)
		return func(c *CPU) bool {
			a, b := c.Regs[rd], c.Regs[rm]
			prod := a * b
			if c.Memo != nil {
				var fast bool
				prod, fast = c.mulWithMemo(a, b)
				if fast {
					c.blockAdj += discount
				}
			}
			c.Regs[rd] = shiftL(prod, sh)
			return true
		}

	case isa.OpAddASV4, isa.OpAddASV8, isa.OpAddASV16:
		lane := op.ASVLane()
		return func(c *CPU) bool {
			c.Regs[rd] = AddASV(c.Regs[rd], c.Regs[rm], lane)
			return true
		}
	case isa.OpSubASV4, isa.OpSubASV8, isa.OpSubASV16:
		lane := op.ASVLane()
		return func(c *CPU) bool {
			c.Regs[rd] = SubASV(c.Regs[rd], c.Regs[rm], lane)
			return true
		}

	case isa.OpLdr, isa.OpLdrX:
		x := op == isa.OpLdrX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if v, ok := c.Mem.TryLoadWord(addr); ok {
				c.Regs[rd] = v
			} else if v, err := c.Mem.LoadWord(addr); err != nil {
				c.blockErr = err
				return false
			} else {
				c.Regs[rd] = v
			}
			return true
		}
	case isa.OpLdrh, isa.OpLdrhX:
		x := op == isa.OpLdrhX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if v, ok := c.Mem.TryLoadHalf(addr); ok {
				c.Regs[rd] = v
			} else if v, err := c.Mem.LoadHalf(addr); err != nil {
				c.blockErr = err
				return false
			} else {
				c.Regs[rd] = v
			}
			return true
		}
	case isa.OpLdrb, isa.OpLdrbX:
		x := op == isa.OpLdrbX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if v, ok := c.Mem.TryLoadByte(addr); ok {
				c.Regs[rd] = v
			} else if v, err := c.Mem.LoadByte(addr); err != nil {
				c.blockErr = err
				return false
			} else {
				c.Regs[rd] = v
			}
			return true
		}

	case isa.OpStr, isa.OpStrX:
		x := op == isa.OpStrX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if addr-mem.DataBase < c.hookSpan {
				c.blockErr = errNVStore
				return false
			}
			nv := c.Mem.NVWrites
			if !c.Mem.TryStoreWord(addr, c.Regs[rd]) {
				if err := c.Mem.StoreWord(addr, c.Regs[rd]); err != nil {
					c.blockErr = err
					return false
				}
			}
			if c.nvRec != nil {
				c.nvRec[i-c.nvBase].NVWrites = int(c.Mem.NVWrites - nv)
			}
			return true
		}
	case isa.OpStrh, isa.OpStrhX:
		x := op == isa.OpStrhX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if addr-mem.DataBase < c.hookSpan {
				c.blockErr = errNVStore
				return false
			}
			nv := c.Mem.NVWrites
			if !c.Mem.TryStoreHalf(addr, c.Regs[rd]) {
				if err := c.Mem.StoreHalf(addr, c.Regs[rd]); err != nil {
					c.blockErr = err
					return false
				}
			}
			if c.nvRec != nil {
				c.nvRec[i-c.nvBase].NVWrites = int(c.Mem.NVWrites - nv)
			}
			return true
		}
	case isa.OpStrb, isa.OpStrbX:
		x := op == isa.OpStrbX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if addr-mem.DataBase < c.hookSpan {
				c.blockErr = errNVStore
				return false
			}
			nv := c.Mem.NVWrites
			if !c.Mem.TryStoreByte(addr, c.Regs[rd]) {
				if err := c.Mem.StoreByte(addr, c.Regs[rd]); err != nil {
					c.blockErr = err
					return false
				}
			}
			if c.nvRec != nil {
				c.nvRec[i-c.nvBase].NVWrites = int(c.Mem.NVWrites - nv)
			}
			return true
		}
	}
	return nil
}

// buildTerm compiles a block-terminating branch at pc into a closure
// returning (nextPC, cycles), plus its worst-case cycle cost for the budget
// gate. Returns nil for non-branches (HALT, SKM, fall-through splits) and
// for `BX PC`, whose operand would be stale mid-block.
func buildTerm(in isa.Instruction, pc uint32) (func(*CPU) (uint32, uint32), uint32) {
	op := in.Op
	base := op.BaseCycles()
	taken := base + 1 // pipeline refill on a taken conditional branch
	tgt := pc + uint32(in.Imm)
	fall := pc + isa.InstBytes

	switch op {
	case isa.OpB:
		return func(*CPU) (uint32, uint32) { return tgt, base }, base
	case isa.OpBl:
		return func(c *CPU) (uint32, uint32) {
			c.Regs[isa.LR] = fall
			return tgt, base
		}, base
	case isa.OpBx:
		if in.Rm == isa.PC {
			return nil, 0
		}
		rm := int(in.Rm) & 15
		return func(c *CPU) (uint32, uint32) { return c.Regs[rm], base }, base
	case isa.OpBeq:
		return func(c *CPU) (uint32, uint32) {
			if c.Z {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBne:
		return func(c *CPU) (uint32, uint32) {
			if !c.Z {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBlt:
		return func(c *CPU) (uint32, uint32) {
			if c.N != c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBge:
		return func(c *CPU) (uint32, uint32) {
			if c.N == c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBgt:
		return func(c *CPU) (uint32, uint32) {
			if !c.Z && c.N == c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBle:
		return func(c *CPU) (uint32, uint32) {
			if c.Z || c.N != c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBlo:
		return func(c *CPU) (uint32, uint32) {
			if !c.C {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBhs:
		return func(c *CPU) (uint32, uint32) {
			if c.C {
				return tgt, taken
			}
			return fall, base
		}, taken
	}
	return nil, 0
}
