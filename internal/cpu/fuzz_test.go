package cpu

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// fuzzSeedWords returns the valid encodable words derived from the
// FuzzEncodeDecode seed instructions — the same operand-class coverage the
// fuzz corpus starts from.
func fuzzSeedWords(t testing.TB) []uint32 {
	t.Helper()
	seeds := []isa.Instruction{
		{Op: isa.OpNop},
		{Op: isa.OpHalt},
		{Op: isa.OpMovI, Rd: 3, Imm: 0xFFFF},
		{Op: isa.OpMovTI, Rd: 3, Imm: 0x1000},
		{Op: isa.OpMov, Rd: 1, Rm: 2},
		{Op: isa.OpAdd, Rd: 1, Rn: 2, Rm: 3},
		{Op: isa.OpAddI, Rd: 1, Rn: 2, Imm: -(1 << 15)},
		{Op: isa.OpSubIS, Rd: 4, Rn: 4, Imm: 1},
		{Op: isa.OpCmpI, Rn: 5, Imm: 1<<15 - 1},
		{Op: isa.OpLdr, Rd: 6, Rn: 7, Imm: 64},
		{Op: isa.OpStrbX, Rd: 6, Rn: 7, Rm: 8},
		{Op: isa.OpB, Imm: -8},
		{Op: isa.OpBl, Imm: 400},
		{Op: isa.OpBx, Rm: 14},
		{Op: isa.OpSkm, Imm: 0x120},
		{Op: isa.OpMulASP8, Rd: 9, Rm: 10, Imm: 3},
		{Op: isa.OpAddASV16, Rd: 11, Rm: 12},
		{Op: isa.OpSubASV4, Rd: 0, Rm: 1},
	}
	var words []uint32
	for _, in := range seeds {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatalf("seed %v does not encode: %v", in, err)
		}
		words = append(words, uint32(w))
	}
	return words
}

// randomProgram synthesizes a program of decodable words: a mix of fuzz-seed
// words with randomized operand fields and raw random words filtered through
// isa.Decode, HALT-terminated. Deterministic per rng.
func randomProgram(rng *rand.Rand, seedWords []uint32) []byte {
	n := 16 + rng.Intn(48)
	image := make([]byte, 0, (n+1)*isa.InstBytes)
	emit := func(w uint32) {
		image = append(image, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			// A fully random decodable word (rejection-sampled).
			for tries := 0; tries < 64; tries++ {
				w := rng.Uint32()
				if _, err := isa.Decode(isa.Word(w)); err == nil {
					emit(w)
					break
				}
				if tries == 63 {
					emit(seedWords[rng.Intn(len(seedWords))])
				}
			}
			continue
		}
		// A seed word with re-randomized register fields, re-checked so the
		// mutation stays decodable; fall back to the original seed word.
		base := seedWords[rng.Intn(len(seedWords))]
		in, err := isa.Decode(isa.Word(base))
		if err != nil {
			continue
		}
		in.Rd = isa.Reg(rng.Intn(13)) // keep off SP/LR/PC for denser execution
		if in.Op.HasRm() {
			in.Rm = isa.Reg(rng.Intn(13))
		}
		if w, err := isa.Encode(in); err == nil {
			emit(uint32(w))
		} else {
			emit(base)
		}
	}
	// Terminate: random programs rarely halt on their own.
	if w, err := isa.Encode(isa.Instruction{Op: isa.OpHalt}); err == nil {
		emit(uint32(w))
	}
	return image
}

// fuzzMaxSteps caps the Step oracle's run of a fuzzed program; a program
// still running at the cap is compared at the oracle's cycle count.
const fuzzMaxSteps = 3000

// FuzzRunMatchesStep is the executor differential as a coverage-guided
// fuzz target. The input is a raw program image, Run's window budget, and
// flag bits: 1 installs a BeforeStore hook, 2 a memo table, 4 records
// costs, 8 marks every even slot amenable. The image runs under the Step
// oracle until halt, fault, or fuzzMaxSteps instructions, and under Run
// windows (with the Step a StopStore asks for) to the same point.
// Registers, flags, halt and skim state, Stats, memory contents and
// counters, memo statistics, fault messages, NV-data hook events, cost
// streams, and the per-window overshoot bound must all agree. The seed
// corpus is 40 deterministic programs built from the FuzzEncodeDecode seed
// classes by randomProgram, each at window budgets 1 and 2^62 and once more
// with one of the 16 flag combinations.
func FuzzRunMatchesStep(f *testing.F) {
	seedWords := fuzzSeedWords(f)
	rng := rand.New(rand.NewSource(0x574E5F50523821)) // deterministic corpus
	budgets := []uint64{1, 7, 64, 1 << 62}
	for i := 0; i < 40; i++ {
		image := randomProgram(rng, seedWords)
		f.Add(image, uint64(1), uint8(0))
		f.Add(image, uint64(1<<62), uint8(0))
		f.Add(image, budgets[i%len(budgets)], uint8(i%16))
	}
	f.Fuzz(func(t *testing.T, image []byte, budget uint64, flags uint8) {
		budget = max(1, min(budget, 1<<62))
		hook, memo, withCosts, amen := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
		type storeEvt struct {
			addr uint32
			size int
		}
		newDev := func(evts *[]storeEvt) (*CPU, *mem.Memory) {
			m := mem.New(mem.DefaultConfig())
			if err := m.LoadProgram(image); err != nil {
				t.Skip(err)
			}
			c := New(m)
			if hook {
				c.BeforeStore = func(addr uint32, size int) { *evts = append(*evts, storeEvt{addr, size}) }
			}
			if memo {
				c.Memo = NewMemoTable()
			}
			if amen {
				var pcs []uint32
				for pc := uint32(mem.CodeBase); pc < mem.CodeBase+uint32(len(image)); pc += 2 * isa.InstBytes {
					pcs = append(pcs, pc)
				}
				c.SetAmenablePCs(pcs)
			}
			return c, m
		}

		var refEvts, runEvts []storeEvt
		ref, refM := newDev(&refEvts)
		var refCosts []Cost
		var refErr error
		for i := 0; i < fuzzMaxSteps && !ref.Halted; i++ {
			var cost Cost
			if cost, refErr = ref.Step(); refErr != nil {
				break
			}
			refCosts = append(refCosts, cost)
		}
		// A program still running at the cap is compared at the oracle's
		// cycle count: windows stop at the first boundary at or past their
		// budget, and every instruction costs at least one cycle, so equal
		// cycle totals mean equal positions.
		capped := refErr == nil && !ref.Halted
		target := ref.Stats.Cycles

		run, runM := newDev(&runEvts)
		var costs *[]Cost
		if withCosts {
			costs = new([]Cost)
		}
		var runErr error
		for i := 0; !run.Halted; i++ {
			if i > 2*fuzzMaxSteps+2 {
				t.Fatal("Run makes no progress")
			}
			win := budget
			if capped {
				if run.Stats.Cycles >= target {
					break
				}
				win = min(win, target-run.Stats.Cycles)
			}
			res, err := run.Run(win, costs)
			if res.Cycles > win+MaxInstrCycles-1 {
				t.Fatalf("window of %d cycles ran %d (reason %d)", win, res.Cycles, res.Reason)
			}
			if err != nil {
				runErr = err
				break
			}
			if res.Reason == StopStore {
				cost, err := run.Step()
				if err != nil {
					runErr = err
					break
				}
				if costs != nil {
					*costs = append(*costs, cost)
				}
			}
		}

		if (refErr == nil) != (runErr == nil) || refErr != nil && refErr.Error() != runErr.Error() {
			t.Fatalf("faults diverge: ref %v run %v", refErr, runErr)
		}
		if ref.Regs != run.Regs || ref.Halted != run.Halted ||
			ref.SkimArmed != run.SkimArmed || ref.SkimTarget != run.SkimTarget ||
			ref.N != run.N || ref.Z != run.Z || ref.C != run.C || ref.V != run.V {
			t.Fatalf("architectural state diverges:\nref %v halted=%v\nrun %v halted=%v",
				ref.Regs, ref.Halted, run.Regs, run.Halted)
		}
		if !reflect.DeepEqual(ref.Stats, run.Stats) {
			t.Fatalf("stats diverge:\nref %+v\nrun %+v", ref.Stats, run.Stats)
		}
		if !refM.StateEqual(runM) ||
			refM.Reads != runM.Reads || refM.Writes != runM.Writes || refM.NVWrites != runM.NVWrites {
			t.Fatal("memory diverges")
		}
		if memo && (ref.Memo.Hits != run.Memo.Hits || ref.Memo.Misses != run.Memo.Misses ||
			ref.Memo.ZeroSkips != run.Memo.ZeroSkips) {
			t.Fatal("memo statistics diverge")
		}
		// Run's hook contract: NV-data stores reach the hook (through the
		// Step after StopStore) in order; other stores execute inline
		// without it.
		var nvEvts []storeEvt
		for _, e := range refEvts {
			if e.addr-mem.DataBase < uint32(refM.Config().DataBytes) {
				nvEvts = append(nvEvts, e)
			}
		}
		if !reflect.DeepEqual(nvEvts, runEvts) {
			t.Fatalf("NV-data hook events diverge: ref %v run %v", nvEvts, runEvts)
		}
		if costs != nil && !slices.Equal(refCosts, *costs) {
			t.Fatalf("cost streams diverge: ref %d entries run %d", len(refCosts), len(*costs))
		}
	})
}
