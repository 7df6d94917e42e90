package cpu

import (
	"fmt"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// Snapshot is the volatile architectural state captured by a checkpoint: the
// register file (including PC) and the condition flags.
type Snapshot struct {
	Regs  [isa.NumRegs]uint32
	N     bool
	Z     bool
	C     bool
	V     bool
	Valid bool
}

// Cost reports what one executed instruction consumed.
type Cost struct {
	Cycles   uint32
	NVWrites int // non-volatile data writes performed (energy surcharge)
}

// Stats aggregates execution statistics.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	OpCount      [isa.NumOpcodes]uint64
	AmenableOps  uint64 // dynamic instructions at WN-amenable PCs
}

// CPU is the simulated core. It executes decoded instructions against a
// Memory under the M0+ cost model. The intermittent runtimes drive it
// through Step (one instruction, full hook fidelity) or Run (the batched
// executor), paying the returned Cost into the energy supply.
type CPU struct {
	Regs [isa.NumRegs]uint32
	// Condition flags, set only by CMP/CMPI.
	N, Z, C, V bool

	Mem    *mem.Memory
	Halted bool

	// Skim register (Section III-C): a dedicated non-volatile register
	// holding the restore target armed by the SKM instruction. Survives
	// power outages by construction.
	SkimTarget uint32
	SkimArmed  bool

	// Memo is the optional multiplier memoization table with zero skipping.
	// Nil disables memoization (the paper's default configuration).
	Memo *MemoTable

	// BeforeStore, when non-nil, runs before every data store with the
	// target address and size. The Clank runtime uses it to checkpoint
	// ahead of idempotency-violating writes. Only Step invokes it: Run
	// returns StopStore ahead of any store into the non-volatile data
	// region instead, so the caller takes the per-step path around exactly
	// those stores.
	BeforeStore func(addr uint32, size int)

	Stats Stats

	// amenable marks WN-amenable instruction slots as a bitset indexed by
	// (PC-CodeBase)/InstBytes. The decode cache copies it into its slots.
	amenable []uint64

	img *image // lazily built per program image; shared by forks

	// Block-mode scratch, per CPU so forked cores never race on the shared
	// image. runs[slot] counts completed executions of the run starting at
	// slot within the current window and dirty lists the touched slots;
	// both flush into Stats when Run returns, so the hot loop pays O(1) per
	// block.
	runs  []uint64
	dirty []uint32
	// hookSpan is the NV data region's size while a BeforeStore hook is
	// installed and 0 otherwise: a store closure stops the block when
	// addr-DataBase < hookSpan.
	hookSpan uint32
	blockErr error  // fault (or errNVStore) raised inside a closure
	blockAdj uint64 // memo fast-hit cycle discount within one block
	// nvRec, while a block records costs, holds the block's cost records
	// (nvRec[0] is slot nvBase's): store closures record their NV-write delta.
	nvRec  []Cost
	nvBase uint32
}

// New builds a CPU over the given memory with PC at the code base.
func New(m *mem.Memory) *CPU {
	c := &CPU{Mem: m}
	c.Regs[isa.PC] = mem.CodeBase
	c.Regs[isa.SP] = mem.SRAMBase + uint32(m.Config().SRAMBytes)
	return c
}

// Reset returns the core to the boot state: PC at the code base, SP at the
// top of SRAM, flags cleared, halt cleared. The skim register is
// non-volatile and therefore NOT cleared here; use DisarmSkim explicitly.
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint32{}
	c.Regs[isa.PC] = mem.CodeBase
	c.Regs[isa.SP] = mem.SRAMBase + uint32(c.Mem.Config().SRAMBytes)
	c.N, c.Z, c.C, c.V = false, false, false, false
	c.Halted = false
}

// DisarmSkim clears the non-volatile skim register. The runtime calls this
// after consuming a skim target on restore, and the harness before starting
// a fresh input.
func (c *CPU) DisarmSkim() {
	c.SkimArmed = false
	c.SkimTarget = 0
}

// Snapshot captures the volatile architectural state for a checkpoint.
func (c *CPU) Snapshot() Snapshot {
	return Snapshot{Regs: c.Regs, N: c.N, Z: c.Z, C: c.C, V: c.V, Valid: true}
}

// Restore reinstates checkpointed state.
func (c *CPU) Restore(s Snapshot) {
	c.Regs = s.Regs
	c.N, c.Z, c.C, c.V = s.N, s.Z, s.C, s.V
	c.Halted = false
}

// PowerLoss models the loss of volatile core state at a brown-out: the
// register file and flags are destroyed, and the (volatile) memo table is
// invalidated. Non-volatile state — the skim register — survives.
func (c *CPU) PowerLoss() {
	c.Regs = [isa.NumRegs]uint32{}
	c.N, c.Z, c.C, c.V = false, false, false, false
	if c.Memo != nil {
		c.Memo.Invalidate()
	}
}

// InvalidateDecodeCache drops the cached decode of code memory (and with it
// the block-mode closures, which are derived from it). Call after loading a
// new program image.
func (c *CPU) InvalidateDecodeCache() {
	c.img = nil
}

// SetAmenablePCs installs the instruction addresses the WN compiler marked
// as amenable to subword pipelining or vectorization; executions at these
// PCs are tallied for Table I. Nil or empty clears the set.
func (c *CPU) SetAmenablePCs(pcs []uint32) {
	if len(pcs) == 0 {
		c.amenable = nil
	} else {
		slots := c.Mem.Config().CodeBytes / isa.InstBytes
		c.amenable = make([]uint64, (slots+63)/64)
		for _, pc := range pcs {
			slot := int(pc-mem.CodeBase) / isa.InstBytes
			if slot >= 0 && slot < slots {
				c.amenable[slot/64] |= 1 << (slot % 64)
			}
		}
	}
	// The decode cache bakes the marks into its slots and run aggregates;
	// rebuild it lazily (never in place: forks may share it).
	c.img = nil
}

// amenableAt reports whether pc carries the compiler's amenable mark. The
// caller guarantees pc is inside code memory (decode has succeeded).
func (c *CPU) amenableAt(pc uint32) bool {
	if c.amenable == nil {
		return false
	}
	slot := (pc - mem.CodeBase) / isa.InstBytes
	w := slot >> 6
	return int(w) < len(c.amenable) && c.amenable[w]&(1<<(slot&63)) != 0
}

// ensureDecodeCache predecodes the loaded program image once, together with
// the block-mode closures and run aggregates derived from it (see image).
// Only the program image is decoded — code memory past it is zeroed by
// LoadProgram, and decodeAt recovers the zero word's decode error lazily if
// execution ever falls off the program's end.
func (c *CPU) ensureDecodeCache() error {
	if c.img != nil {
		return nil
	}
	n := c.Mem.Config().CodeBytes / isa.InstBytes
	prog := (c.Mem.ProgramBytes() + isa.InstBytes - 1) / isa.InstBytes
	if prog > n {
		prog = n
	}
	words := make([]uint32, prog)
	for i := range words {
		w, err := c.Mem.FetchWord(mem.CodeBase + uint32(i*isa.InstBytes))
		if err != nil {
			return err
		}
		words[i] = w
	}
	c.img = newImage(words, c.amenableAt)
	return nil
}

func (c *CPU) decodeAt(pc uint32) (isa.Instruction, error) {
	if pc%isa.InstBytes != 0 {
		return isa.Instruction{}, fmt.Errorf("cpu: misaligned PC %#08x", pc)
	}
	if err := c.ensureDecodeCache(); err != nil {
		return isa.Instruction{}, err
	}
	if pc < mem.CodeBase || pc-mem.CodeBase >= uint32(c.Mem.Config().CodeBytes) {
		return isa.Instruction{}, fmt.Errorf("cpu: PC %#08x outside code memory", pc)
	}
	idx := int(pc-mem.CodeBase) / isa.InstBytes
	if idx >= len(c.img.slots) {
		// Past the decoded program image: decode the raw word (zeroed by
		// LoadProgram unless the program wrote over it) so the fault names
		// the real cause.
		if w, ferr := c.Mem.FetchWord(pc); ferr == nil {
			if _, derr := isa.Decode(isa.Word(w)); derr != nil {
				return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x: %v", pc, derr)
			}
		}
		return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x", pc)
	}
	in := c.img.slots[idx].in
	if !in.Op.Valid() {
		if derr := c.img.errs[idx]; derr != nil {
			return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x: %v", pc, derr)
		}
		return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x", pc)
	}
	return in, nil
}

// setFlagsSub sets NZCV for the subtraction a-b (ARM CMP semantics: C is
// the no-borrow flag).
func (c *CPU) setFlagsSub(a, b uint32) {
	r := a - b
	c.N = int32(r) < 0
	c.Z = r == 0
	c.C = a >= b
	c.V = (int32(a) < 0) != (int32(b) < 0) && (int32(r) < 0) != (int32(a) < 0)
}

func (c *CPU) condTrue(op isa.Opcode) bool {
	switch op {
	case isa.OpBeq:
		return c.Z
	case isa.OpBne:
		return !c.Z
	case isa.OpBlt:
		return c.N != c.V
	case isa.OpBge:
		return c.N == c.V
	case isa.OpBgt:
		return !c.Z && c.N == c.V
	case isa.OpBle:
		return c.Z || c.N != c.V
	case isa.OpBlo:
		return !c.C
	case isa.OpBhs:
		return c.C
	}
	return true
}

// Step executes one instruction. It returns the cost of the instruction and
// a non-nil error on a fault (illegal instruction, bad memory access). A
// halted CPU returns a zero cost.
func (c *CPU) Step() (Cost, error) {
	if c.Halted {
		return Cost{}, nil
	}
	pc := c.Regs[isa.PC]
	in, err := c.decodeAt(pc)
	if err != nil {
		return Cost{}, err
	}
	if c.amenableAt(pc) {
		c.Stats.AmenableOps++
	}

	nvBefore := c.Mem.NVWrites
	nextPC, cycles, err := c.execute(in, pc, true)
	if err != nil {
		return Cost{}, err
	}
	c.Regs[isa.PC] = nextPC

	cost := Cost{Cycles: cycles, NVWrites: int(c.Mem.NVWrites - nvBefore)}
	if in.Op == isa.OpSkm {
		cost.NVWrites++ // the skim register is non-volatile
	}
	c.Stats.Instructions++
	c.Stats.Cycles += uint64(cycles)
	c.Stats.OpCount[in.Op]++
	return cost, nil
}

// execute interprets one decoded instruction at pc and returns the next PC
// and the cycle cost. It does not advance PC or update Stats — Step and
// Run's per-instruction path share it and layer their own bookkeeping on
// top. callHook gates the BeforeStore callback: Step passes true; Run passes
// false because it already stopped ahead of any store the hook needs to
// observe.
func (c *CPU) execute(in isa.Instruction, pc uint32, callHook bool) (uint32, uint32, error) {
	cycles := in.Op.BaseCycles()
	nextPC := pc + isa.InstBytes
	var err error

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.Halted = true
		nextPC = pc

	case isa.OpMov:
		c.Regs[in.Rd] = c.Regs[in.Rm]
	case isa.OpMovI:
		c.Regs[in.Rd] = uint32(in.Imm)
	case isa.OpMovTI:
		c.Regs[in.Rd] = c.Regs[in.Rd]&0xFFFF | uint32(in.Imm)<<16

	case isa.OpAdd:
		c.Regs[in.Rd] = c.Regs[in.Rn] + c.Regs[in.Rm]
	case isa.OpAddI:
		c.Regs[in.Rd] = c.Regs[in.Rn] + uint32(in.Imm)
	case isa.OpSub:
		c.Regs[in.Rd] = c.Regs[in.Rn] - c.Regs[in.Rm]
	case isa.OpSubI:
		c.Regs[in.Rd] = c.Regs[in.Rn] - uint32(in.Imm)
	case isa.OpAnd:
		c.Regs[in.Rd] = c.Regs[in.Rn] & c.Regs[in.Rm]
	case isa.OpAndI:
		c.Regs[in.Rd] = c.Regs[in.Rn] & uint32(in.Imm)
	case isa.OpOrr:
		c.Regs[in.Rd] = c.Regs[in.Rn] | c.Regs[in.Rm]
	case isa.OpOrrI:
		c.Regs[in.Rd] = c.Regs[in.Rn] | uint32(in.Imm)
	case isa.OpEor:
		c.Regs[in.Rd] = c.Regs[in.Rn] ^ c.Regs[in.Rm]
	case isa.OpEorI:
		c.Regs[in.Rd] = c.Regs[in.Rn] ^ uint32(in.Imm)
	case isa.OpLsl:
		c.Regs[in.Rd] = shiftL(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpLslI:
		c.Regs[in.Rd] = shiftL(c.Regs[in.Rn], uint32(in.Imm))
	case isa.OpLsr:
		c.Regs[in.Rd] = shiftR(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpLsrI:
		c.Regs[in.Rd] = shiftR(c.Regs[in.Rn], uint32(in.Imm))
	case isa.OpAsr:
		c.Regs[in.Rd] = shiftAR(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpAsrI:
		c.Regs[in.Rd] = shiftAR(c.Regs[in.Rn], uint32(in.Imm))

	case isa.OpCmp:
		c.setFlagsSub(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpCmpI:
		c.setFlagsSub(c.Regs[in.Rn], uint32(in.Imm))
	case isa.OpSubIS:
		a := c.Regs[in.Rn]
		c.setFlagsSub(a, uint32(in.Imm))
		c.Regs[in.Rd] = a - uint32(in.Imm)

	case isa.OpMul:
		a, b := c.Regs[in.Rn], c.Regs[in.Rm]
		prod, fast := c.mulWithMemo(a, b)
		if fast {
			cycles = 1
		}
		c.Regs[in.Rd] = prod

	case isa.OpMulASP1, isa.OpMulASP2, isa.OpMulASP3, isa.OpMulASP4, isa.OpMulASP8:
		// Rd = (Rd * Rm) << (bits * pos). Rm holds the subword value; the
		// iterative multiplier runs only `bits` steps.
		bits := in.Op.ASPBits()
		a, b := c.Regs[in.Rd], c.Regs[in.Rm]
		prod, fast := c.mulWithMemo(a, b)
		if fast {
			cycles = 1
		}
		c.Regs[in.Rd] = shiftL(prod, uint32(bits)*uint32(in.Imm))

	case isa.OpAddASV4, isa.OpAddASV8, isa.OpAddASV16:
		c.Regs[in.Rd] = AddASV(c.Regs[in.Rd], c.Regs[in.Rm], in.Op.ASVLane())
	case isa.OpSubASV4, isa.OpSubASV8, isa.OpSubASV16:
		c.Regs[in.Rd] = SubASV(c.Regs[in.Rd], c.Regs[in.Rm], in.Op.ASVLane())

	case isa.OpLdr, isa.OpLdrh, isa.OpLdrb, isa.OpLdrX, isa.OpLdrhX, isa.OpLdrbX:
		addr := c.effAddr(in)
		var v uint32
		switch in.Op {
		case isa.OpLdr, isa.OpLdrX:
			v, err = c.Mem.LoadWord(addr)
		case isa.OpLdrh, isa.OpLdrhX:
			v, err = c.Mem.LoadHalf(addr)
		default:
			v, err = c.Mem.LoadByte(addr)
		}
		if err != nil {
			return 0, 0, err
		}
		c.Regs[in.Rd] = v

	case isa.OpStr, isa.OpStrh, isa.OpStrb, isa.OpStrX, isa.OpStrhX, isa.OpStrbX:
		addr := c.effAddr(in)
		size := 4
		switch in.Op {
		case isa.OpStrh, isa.OpStrhX:
			size = 2
		case isa.OpStrb, isa.OpStrbX:
			size = 1
		}
		if callHook && c.BeforeStore != nil {
			c.BeforeStore(addr, size)
		}
		switch size {
		case 4:
			err = c.Mem.StoreWord(addr, c.Regs[in.Rd])
		case 2:
			err = c.Mem.StoreHalf(addr, c.Regs[in.Rd])
		default:
			err = c.Mem.StoreByte(addr, c.Regs[in.Rd])
		}
		if err != nil {
			return 0, 0, err
		}

	case isa.OpB:
		nextPC = pc + uint32(in.Imm)
	case isa.OpBl:
		c.Regs[isa.LR] = pc + isa.InstBytes
		nextPC = pc + uint32(in.Imm)
	case isa.OpBx:
		nextPC = c.Regs[in.Rm]
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBgt, isa.OpBle, isa.OpBlo, isa.OpBhs:
		if c.condTrue(in.Op) {
			nextPC = pc + uint32(in.Imm)
			cycles++ // pipeline refill on a taken branch
		}

	case isa.OpSkm:
		c.SkimTarget = uint32(in.Imm)
		c.SkimArmed = true
		// The caller accounts the skim register's NV write.

	default:
		return 0, 0, fmt.Errorf("cpu: unimplemented opcode %s at %#08x", in.Op.Name(), pc)
	}

	return nextPC, cycles, nil
}

// mulWithMemo computes a*b through zero skipping and the memo table when
// enabled. fast reports a single-cycle result.
func (c *CPU) mulWithMemo(a, b uint32) (prod uint32, fast bool) {
	if c.Memo == nil {
		return a * b, false
	}
	if p, hit := c.Memo.Lookup(a, b); hit {
		return p, true
	}
	p := a * b
	c.Memo.Insert(a, b, p)
	return p, false
}

func (c *CPU) effAddr(in isa.Instruction) uint32 {
	if in.Op.HasRm() {
		return c.Regs[in.Rn] + c.Regs[in.Rm]
	}
	return c.Regs[in.Rn] + uint32(in.Imm)
}

func shiftL(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v << by
}

func shiftR(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v >> by
}

func shiftAR(v, by uint32) uint32 {
	if by >= 32 {
		by = 31
	}
	return uint32(int32(v) >> by)
}

// Fork clones the core onto a forked memory for lockstep fault injection:
// architectural state (registers, flags, halt, skim) and Stats copy; the
// amenable bitset and the decode cache with its closures and run aggregates
// are shared — they are immutable once built and depend only on the program
// image, so a thousand forked children pay decoding exactly once.
//
// The BeforeStore hook is deliberately NOT carried over: it closes over the
// parent's runtime, and the forked runtime must reinstall its own. The memo
// table, when present, forks as a fresh empty table of the same size — the
// fork point is always followed by a power failure, which invalidates the
// (volatile) memo contents anyway.
func (c *CPU) Fork(m *mem.Memory) *CPU {
	n := &CPU{
		Regs:       c.Regs,
		N:          c.N,
		Z:          c.Z,
		C:          c.C,
		V:          c.V,
		Mem:        m,
		Halted:     c.Halted,
		SkimTarget: c.SkimTarget,
		SkimArmed:  c.SkimArmed,
		Stats:      c.Stats,

		amenable: c.amenable,
		img:      c.img,
	}
	if c.Memo != nil {
		n.Memo = NewSizedMemoTable(c.Memo.Entries())
	}
	return n
}
