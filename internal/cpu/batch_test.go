package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// diffPrograms exercises every closure and terminator Run's block mode
// mirrors from execute: ALU ops, flags, all load/store widths (immediate and
// register offset), multiplies, SWAR vector ops, branches, calls, and SKM.
var diffPrograms = map[string]string{
	"mixed-loop": `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #200
	loop:
		LDRH R2, [R0, #0]
		LDRB R3, [R0, #2]
		MUL_ASP8 R2, R3, #1
		ADD R4, R4, R2
		STR R4, [R0, #4]
		SUBIS R1, R1, #1
		BNE loop
		HALT
	`,
	"widths-and-offsets": `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #0x1234
		STRH R1, [R0, #0]
		STRB R1, [R0, #3]
		MOVI R2, #8
		STRX R1, [R0, R2]
		LDRX R3, [R0, R2]
		LDRHX R4, [R0, R2]
		LDRBX R5, [R0, R2]
		MUL R6, R1, R3
		ADD_ASV8 R6, R3
		SUB_ASV4 R6, R4
		HALT
	`,
	"calls-and-flags": `
		MOVI R0, #5
		BL double
		CMPI R1, #10
		BEQ ok
		MOVI R9, #1
	ok:
		HALT
	double:
		LSL R1, R0, #1
		BX LR
	`,
	"skim": `
		MOVI R0, #3
		SKM done
	spin:
		SUBIS R0, R0, #1
		BNE spin
	done:
		HALT
	`,
}

// newDiffPair assembles src onto two independent, identically prepared
// devices: ref for the Step oracle, bat for Run.
func newDiffPair(t *testing.T, src string) (ref, bat *CPU, refM, batM *mem.Memory) {
	t.Helper()
	ref, refM = device(t, src)
	bat, batM = device(t, src)
	return ref, bat, refM, batM
}

// stepRef runs the reference per-instruction loop until halt or fault,
// returning the total cycles, the per-instruction costs, and any fault.
func stepRef(t *testing.T, c *CPU) (uint64, []Cost, error) {
	t.Helper()
	var (
		cycles uint64
		costs  []Cost
	)
	for i := 0; !c.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway reference program")
		}
		cost, err := c.Step()
		if err != nil {
			return cycles, costs, err
		}
		cycles += uint64(cost.Cycles)
		costs = append(costs, cost)
	}
	return cycles, costs, nil
}

// runWindows drives Run in windows of the given budget until halt or fault,
// collecting the same per-instruction cost stream (nil costs: none). A
// StopStore window is followed by the Step it asks for, as the runtimes do.
func runWindows(t *testing.T, c *CPU, budget uint64, costs *[]Cost) (uint64, error) {
	t.Helper()
	var cycles uint64
	for i := 0; !c.Halted; i++ {
		if i > 1_000_000 {
			t.Fatal("runaway batched program")
		}
		res, err := c.Run(budget, costs)
		cycles += res.Cycles
		if err != nil {
			return cycles, err
		}
		if res.Reason == StopStore {
			cost, err := c.Step()
			cycles += uint64(cost.Cycles)
			if costs != nil && err == nil {
				*costs = append(*costs, cost)
			}
			if err != nil {
				return cycles, err
			}
		}
	}
	return cycles, nil
}

// assertSameState compares every piece of architectural and statistical
// state the two execution paths must agree on.
func assertSameState(t *testing.T, ref, bat *CPU, refM, batM *mem.Memory) {
	t.Helper()
	if ref.Regs != bat.Regs {
		t.Errorf("registers diverge:\nref %v\nbat %v", ref.Regs, bat.Regs)
	}
	if ref.N != bat.N || ref.Z != bat.Z || ref.C != bat.C || ref.V != bat.V {
		t.Errorf("flags diverge: ref NZCV=%v%v%v%v bat NZCV=%v%v%v%v",
			ref.N, ref.Z, ref.C, ref.V, bat.N, bat.Z, bat.C, bat.V)
	}
	if ref.Halted != bat.Halted || ref.SkimArmed != bat.SkimArmed || ref.SkimTarget != bat.SkimTarget {
		t.Errorf("halt/skim state diverges: ref (%v %v %#x) bat (%v %v %#x)",
			ref.Halted, ref.SkimArmed, ref.SkimTarget, bat.Halted, bat.SkimArmed, bat.SkimTarget)
	}
	if !reflect.DeepEqual(ref.Stats, bat.Stats) {
		t.Errorf("stats diverge:\nref %+v\nbat %+v", ref.Stats, bat.Stats)
	}
	if refM.Reads != batM.Reads || refM.Writes != batM.Writes || refM.NVWrites != batM.NVWrites {
		t.Errorf("memory counters diverge: ref (%d %d %d) bat (%d %d %d)",
			refM.Reads, refM.Writes, refM.NVWrites, batM.Reads, batM.Writes, batM.NVWrites)
	}
	n := refM.Config().DataBytes
	refData := make([]byte, n)
	batData := make([]byte, n)
	if err := refM.ReadData(mem.DataBase, refData); err != nil {
		t.Fatal(err)
	}
	if err := batM.ReadData(mem.DataBase, batData); err != nil {
		t.Fatal(err)
	}
	for i := range refData {
		if refData[i] != batData[i] {
			t.Errorf("data memory diverges at %#08x: ref %#02x bat %#02x",
				mem.DataBase+uint32(i), refData[i], batData[i])
			break
		}
	}
}

// TestRunUntilMatchesStep is the instruction-level differential between
// the Step oracle and the batched executor Run: every program runs to halt
// through Step and through Run at several window sizes (budget=1 forces a
// window per instruction, 2^62 one window per program), once recording
// costs and once without. All architectural state, statistics, cycle
// counts, and per-instruction cost streams must be identical.
func TestRunUntilMatchesStep(t *testing.T) {
	budgets := []uint64{1, 7, 64, 1 << 62}
	for name, src := range diffPrograms {
		for _, budget := range budgets {
			t.Run(name, func(t *testing.T) {
				ref, bat, refM, batM := newDiffPair(t, src)
				refCycles, refCosts, refErr := stepRef(t, ref)
				var batCosts []Cost
				batCycles, batErr := runWindows(t, bat, budget, &batCosts)
				if refErr != nil || batErr != nil {
					t.Fatalf("unexpected faults: ref %v bat %v", refErr, batErr)
				}
				if refCycles != batCycles {
					t.Errorf("budget %d: cycles diverge: ref %d bat %d", budget, refCycles, batCycles)
				}
				if !reflect.DeepEqual(refCosts, batCosts) {
					t.Errorf("budget %d: cost streams diverge (%d vs %d entries)",
						budget, len(refCosts), len(batCosts))
				}
				assertSameState(t, ref, bat, refM, batM)

				plain, plainM := device(t, src)
				if _, err := runWindows(t, plain, budget, nil); err != nil {
					t.Fatal(err)
				}
				assertSameState(t, ref, plain, refM, plainM)
			})
		}
	}
}

// TestRunUntilAmenableCounting pins AmenableOps parity between Step and
// Run's aggregate accounting, including across window boundaries and at
// the StopStore ahead of each loop iteration's NV store (a store hook is
// installed), which charges a block prefix holding both marks.
func TestRunUntilAmenableCounting(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	marks := []uint32{mem.CodeBase + 3*isa.InstBytes, mem.CodeBase + 5*isa.InstBytes}
	ref, bat, refM, batM := newDiffPair(t, src)
	for _, c := range []*CPU{ref, bat} {
		c.SetAmenablePCs(marks)
		c.BeforeStore = func(uint32, int) {}
	}
	if _, _, err := stepRef(t, ref); err != nil {
		t.Fatal(err)
	}
	if _, err := runWindows(t, bat, 13, nil); err != nil {
		t.Fatal(err)
	}
	if ref.Stats.AmenableOps == 0 {
		t.Fatal("test program never hit an amenable PC")
	}
	assertSameState(t, ref, bat, refM, batM)
}

// TestRunUntilStoreHook verifies the StopStore contract: with a BeforeStore
// hook installed, Run must stop before every NV-data store so the caller
// can route it through Step, and the hook must observe the same sequence of
// (addr, size) pairs as the reference loop.
func TestRunUntilStoreHook(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	type storeEvt struct {
		addr uint32
		size int
	}

	ref, bat, refM, batM := newDiffPair(t, src)
	var refEvts, batEvts []storeEvt
	ref.BeforeStore = func(addr uint32, size int) {
		refEvts = append(refEvts, storeEvt{addr, size})
	}
	bat.BeforeStore = func(addr uint32, size int) {
		batEvts = append(batEvts, storeEvt{addr, size})
	}

	if _, _, err := stepRef(t, ref); err != nil {
		t.Fatal(err)
	}
	if _, err := runWindows(t, bat, 1<<62, nil); err != nil {
		t.Fatal(err)
	}

	if len(refEvts) == 0 {
		t.Fatal("test program never stored to NV data")
	}
	if !reflect.DeepEqual(refEvts, batEvts) {
		t.Errorf("hook sequences diverge: ref %d events, bat %d events", len(refEvts), len(batEvts))
	}
	assertSameState(t, ref, bat, refM, batM)
}

// TestRunUntilFaultParity checks that Step and Run fault identically: same
// error message, same cost stream, same final state (PC parked on the
// faulting instruction), and the faulting instruction is not counted by
// either. Each program's fault lies inside the block that starts at the
// entry, so the executed prefix must be charged exactly as Step charges
// it: a load fault, a store fault, and a run that falls off the end of the
// decoded image. Every slot is marked amenable, so the prefix's marks and
// the faulting instruction's (Step tallies it before executing) count too.
func TestRunUntilFaultParity(t *testing.T) {
	progs := map[string]struct {
		src   string
		fault int // slot of the faulting instruction
	}{
		"unmapped-load": {`
			MOVI R0, #0
			MOVTI R0, #0x4000
			NOP
			LDR R1, [R0, #0]
			HALT
		`, 3},
		"fall-off-end": {`
			MOVI R0, #1
			NOP
		`, 2},
		"mid-block-store-fault": {`
			MOVI R0, #0
			MOVTI R0, #0x4000
			MOVI R1, #7
			ADD R2, R1, R1
			STR R2, [R0, #8]
			SUBIS R1, R1, #1
			HALT
		`, 4},
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			ref, bat, refM, batM := newDiffPair(t, p.src)
			var marks []uint32
			for pc := uint32(mem.CodeBase); pc < mem.CodeBase+uint32(refM.ProgramBytes()); pc += isa.InstBytes {
				marks = append(marks, pc)
			}
			ref.SetAmenablePCs(marks)
			bat.SetAmenablePCs(marks)
			if end := runEnd(t, bat, 0); end < min(p.fault+1, len(bat.img.slots)) {
				t.Fatalf("entry run ends at slot %d, before the fault at slot %d", end, p.fault)
			}
			_, refCosts, refErr := stepRef(t, ref)
			var batCosts []Cost
			_, batErr := runWindows(t, bat, 1<<62, &batCosts)
			if refErr == nil || batErr == nil {
				t.Fatalf("expected faults, got ref %v bat %v", refErr, batErr)
			}
			if refErr.Error() != batErr.Error() {
				t.Errorf("fault messages diverge:\nref %v\nbat %v", refErr, batErr)
			}
			if len(batCosts) != p.fault || !reflect.DeepEqual(refCosts, batCosts) {
				t.Errorf("cost stream %v, want the %d-instruction prefix %v", batCosts, p.fault, refCosts)
			}
			assertSameState(t, ref, bat, refM, batM)
		})
	}
}

// TestRunUntilBudgetIsFloor pins the window contract batch schedulers rely
// on: Run stops at the first instruction boundary at or past the budget,
// overshooting by strictly less than MaxInstrCycles.
func TestRunUntilBudgetIsFloor(t *testing.T) {
	c, _ := device(t, diffPrograms["mixed-loop"])
	for !c.Halted {
		res, err := c.Run(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason == StopBudget && (res.Cycles < 100 || res.Cycles >= 100+MaxInstrCycles) {
			t.Fatalf("budget window returned %d cycles, want [100, %d)", res.Cycles, 100+MaxInstrCycles)
		}
	}
}

// memoLoop is a memoization-heavy multiply loop with a multiply-free
// prologue and epilogue, so block mode and the per-instruction multiply
// path both run under a memo table.
const memoLoop = `
	MOVI R1, #300
	MOVI R2, #17
	MOVI R3, #23
loop:
	MUL R4, R2, R3
	MUL_ASP8 R4, R2, #1
	ADD R5, R5, R4
	SUBIS R1, R1, #1
	BNE loop
	ADD R6, R5, R5
	EOR R7, R6, R5
	HALT
`

// TestRunMemoParity runs memoLoop under Step and Run with memo tables
// installed, with and without recorded costs: block mode's fast-hit cycle
// discount (and, with costs, the per-instruction multiply path) must
// reproduce Step's data-dependent multiply costs exactly.
func TestRunMemoParity(t *testing.T) {
	for _, withCosts := range []bool{false, true} {
		ref, bat, refM, batM := newDiffPair(t, memoLoop)
		ref.Memo = NewMemoTable()
		bat.Memo = NewMemoTable()
		refCycles, refCosts, refErr := stepRef(t, ref)
		var batCosts []Cost
		costs := &batCosts
		if !withCosts {
			costs = nil
		}
		batCycles, batErr := runWindows(t, bat, 1<<62, costs)
		if refErr != nil || batErr != nil {
			t.Fatalf("unexpected faults: ref %v bat %v", refErr, batErr)
		}
		if refCycles != batCycles {
			t.Errorf("costs %v: cycles diverge with memoization: ref %d bat %d", withCosts, refCycles, batCycles)
		}
		if withCosts && !reflect.DeepEqual(refCosts, batCosts) {
			t.Errorf("cost streams diverge with memoization (%d vs %d entries)", len(refCosts), len(batCosts))
		}
		if ref.Memo.Hits == 0 || ref.Memo.Hits != bat.Memo.Hits || ref.Memo.Misses != bat.Memo.Misses {
			t.Errorf("costs %v: memo hits/misses ref %d/%d bat %d/%d", withCosts,
				ref.Memo.Hits, ref.Memo.Misses, bat.Memo.Hits, bat.Memo.Misses)
		}
		assertSameState(t, ref, bat, refM, batM)
	}
}

// TestRunBudgetOvershootAllStopReasons pins the overshoot bound for every
// StopReason — budget, halt, store-hook, skim, and fault: a window never
// exceeds budget + MaxInstrCycles - 1 cycles. The programs are chosen so
// every reason is actually observed, and the test fails if one never occurs.
func TestRunBudgetOvershootAllStopReasons(t *testing.T) {
	progs := []string{
		diffPrograms["mixed-loop"], // stores (StopStore with hook), budget windows, halt
		diffPrograms["skim"],       // StopSkim
		`
			MOVI R0, #0
			MOVTI R0, #0x4000
			MOVI R1, #50
		spin:
			ADD R2, R2, R1
			MUL R3, R2, R1
			SUBIS R1, R1, #1
			BNE spin
			LDR R4, [R0, #0]
			HALT
		`, // StopFault after a multiply-heavy run (worst-case overshoot)
	}
	seen := map[StopReason]bool{}
	for _, src := range progs {
		for budget := uint64(1); budget <= 40; budget++ {
			c, _ := device(t, src)
			c.BeforeStore = func(uint32, int) {} // arm the StopStore path
			for i := 0; !c.Halted; i++ {
				if i > 100_000 {
					t.Fatal("runaway program")
				}
				res, err := c.Run(budget, nil)
				seen[res.Reason] = true
				if res.Cycles > budget+MaxInstrCycles-1 {
					t.Fatalf("budget %d: window ran %d cycles (reason %d), want <= %d",
						budget, res.Cycles, res.Reason, budget+MaxInstrCycles-1)
				}
				if err != nil {
					break // fault windows end the run
				}
				if res.Reason == StopStore {
					if _, err := c.Step(); err != nil {
						break
					}
				}
			}
		}
	}
	for _, want := range []StopReason{StopBudget, StopHalt, StopStore, StopSkim, StopFault} {
		if !seen[want] {
			t.Errorf("StopReason %d never observed", want)
		}
	}
}

// TestForkSharesTranslation pins the lockstep fork contract: a forked CPU
// shares the parent's decode cache, closures and run aggregates
// (pointer-equal), copies architectural state, drops the store hook, and
// runs independently to a state identical to an unforked continuation.
func TestForkSharesTranslation(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	c, m := device(t, src)
	c.BeforeStore = func(uint32, int) {}
	// Run partway in, then fork.
	if _, err := c.Run(100, nil); err != nil {
		t.Fatal(err)
	}
	c.BeforeStore = nil
	m2 := m.Clone()
	f := c.Fork(m2)
	if f.img == nil || f.img != c.img {
		t.Fatal("fork must share the parent's decode cache and closures")
	}
	if f.BeforeStore != nil {
		t.Fatal("fork must not inherit the BeforeStore hook")
	}
	if f.Regs != c.Regs || f.Stats != c.Stats {
		t.Fatal("fork must copy architectural state and stats")
	}
	// Both continue to halt; they must stay identical.
	for !c.Halted {
		if _, err := c.Run(1<<62, nil); err != nil {
			t.Fatal(err)
		}
	}
	for !f.Halted {
		if _, err := f.Run(1<<62, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.img != c.img {
		t.Fatal("running a fork must not rebuild the shared decode cache")
	}
	if c.Regs != f.Regs || c.Stats != f.Stats || !m.StateEqual(m2) {
		t.Fatal("forked continuation diverged from the parent's")
	}
}

// runEnd returns the end slot of the run starting at slot, so a test can
// assert that one big window takes block mode over the instructions it
// cares about rather than the per-instruction path.
func runEnd(t *testing.T, c *CPU, slot int) int {
	t.Helper()
	if err := c.ensureDecodeCache(); err != nil {
		t.Fatal(err)
	}
	return int(c.img.slots[slot].end)
}

// TestRunBlockNVStoreUnderHook stops a block at an NV-data store under a
// BeforeStore hook: Run returns StopStore after charging the prefix, the
// hook has not fired, and the following Step executes the store and fires
// it exactly once.
func TestRunBlockNVStoreUnderHook(t *testing.T) {
	src := `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #5
		ADD R2, R1, R1
		STR R2, [R0, #4]
		ADD R3, R2, R2
		HALT
	`
	ref, bat, refM, batM := newDiffPair(t, src)
	store := uint32(mem.CodeBase + 4*isa.InstBytes)
	if end := runEnd(t, bat, 0); end <= 4 {
		t.Fatalf("entry run ends at slot %d, before the store", end)
	}
	var refHits, batHits []uint32
	ref.BeforeStore = func(addr uint32, _ int) { refHits = append(refHits, addr) }
	bat.BeforeStore = func(addr uint32, _ int) { batHits = append(batHits, addr) }
	_, refCosts, err := stepRef(t, ref)
	if err != nil {
		t.Fatal(err)
	}

	var costs []Cost
	res, err := bat.Run(1<<62, &costs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopStore || res.Instructions != 4 || len(costs) != 4 {
		t.Fatalf("got reason %d after %d instructions (%d costs), want StopStore after 4",
			res.Reason, res.Instructions, len(costs))
	}
	if bat.Regs[isa.PC] != store || len(batHits) != 0 || batM.NVWrites != 0 {
		t.Fatalf("PC %#x, %d hook calls, %d NV writes: want PC at the store %#x, nothing stored",
			bat.Regs[isa.PC], len(batHits), batM.NVWrites, store)
	}
	cost, err := bat.Step()
	if err != nil {
		t.Fatal(err)
	}
	costs = append(costs, cost)
	if len(batHits) != 1 || batHits[0] != mem.DataBase+4 {
		t.Fatalf("hook calls after Step: %#x, want one at %#x", batHits, mem.DataBase+4)
	}
	for !bat.Halted {
		if _, err := bat.Run(1<<62, &costs); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(refHits, batHits) || !reflect.DeepEqual(refCosts, costs) {
		t.Errorf("hooks %#x / costs %v, want %#x / %v", batHits, costs, refHits, refCosts)
	}
	assertSameState(t, ref, bat, refM, batM)
}

// TestRunBlockBXMidRun branches through BX into the middle of a
// straight-line run: the block starting at the target must run from there,
// not from the run's head.
func TestRunBlockBXMidRun(t *testing.T) {
	target := uint32(mem.CodeBase + 3*isa.InstBytes)
	src := fmt.Sprintf(`
		MOVI R4, #%d
		BX R4
		ADDI R1, R1, #1
		ADDI R2, R2, #2
		ADDI R3, R3, #3
		HALT
	`, target)
	ref, bat, refM, batM := newDiffPair(t, src)
	if end := runEnd(t, bat, 2); end <= 3 {
		t.Fatalf("run at slot 2 ends at slot %d, before the BX target", end)
	}
	refCycles, refCosts, err := stepRef(t, ref)
	if err != nil {
		t.Fatal(err)
	}
	var costs []Cost
	cycles, err := runWindows(t, bat, 1<<62, &costs)
	if err != nil {
		t.Fatal(err)
	}
	if bat.Regs[1] != 0 || bat.Regs[2] != 2 || bat.Regs[3] != 3 {
		t.Errorf("R1..R3 = %d %d %d, want 0 2 3", bat.Regs[1], bat.Regs[2], bat.Regs[3])
	}
	if cycles != refCycles || !reflect.DeepEqual(refCosts, costs) {
		t.Errorf("cycles %d costs %v, want %d %v", cycles, costs, refCycles, refCosts)
	}
	assertSameState(t, ref, bat, refM, batM)
}

// TestRunHooklessNVStores runs a store-heavy loop without a BeforeStore
// hook: one window must reach HALT without stopping at any NV store, and the
// recorded costs must carry each store's NV write exactly as Step's do.
func TestRunHooklessNVStores(t *testing.T) {
	src := diffPrograms["mixed-loop"]
	ref, bat, refM, batM := newDiffPair(t, src)
	_, refCosts, err := stepRef(t, ref)
	if err != nil {
		t.Fatal(err)
	}
	var costs []Cost
	res, err := bat.Run(1<<62, &costs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("hook-less window stopped with reason %d, want StopHalt", res.Reason)
	}
	nv := 0
	for _, c := range costs {
		nv += c.NVWrites
	}
	if nv == 0 || uint64(nv) != batM.NVWrites {
		t.Errorf("costs carry %d NV writes, memory counted %d", nv, batM.NVWrites)
	}
	if !reflect.DeepEqual(refCosts, costs) {
		t.Errorf("cost streams diverge (%d vs %d entries)", len(refCosts), len(costs))
	}
	assertSameState(t, ref, bat, refM, batM)
}
