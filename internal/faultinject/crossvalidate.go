package faultinject

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// Static↔dynamic cross-validation: CrossValidate consumes a wncheck
// verification certificate and checks both directions of the contract it
// states.
//
//   - Soundness of the proof: a power failure at any instruction boundary
//     inside proven (un-flagged) territory must leave the final NV data
//     bit-exact against an uninterrupted golden run. Any divergence there
//     is a Violation — either the analysis or the runtime is wrong.
//   - Non-vacuousness of the findings: every flagged region must be
//     witnessable — some kill whose resume point falls inside the region's
//     hazard window must produce a real divergence, recorded with its kill
//     cycle and first differing word. A flagged region nothing can witness
//     is a false alarm worth investigating (or a region only a weaker
//     runtime than the configured one can expose).
//
// Input locations (CrossConfig.InputWords) extend the oracle from one
// golden run to a small set of worlds: every forced failure advances the
// declared input words by one, modeling an external world that moved on
// while the device was dark. An injected run is then clean iff its final
// NV data (with the input words themselves masked) matches SOME single
// world's golden run — the formal memory-consistency condition. A state
// matching no world is exactly the repeated-input hazard WN105 flags.
type CrossConfig struct {
	Config
	// InputWords lists word-aligned NV data addresses treated as input
	// (sensor/IO) locations: advanced by one on every forced failure and
	// masked from the bit-exact comparison. Should mirror the
	// wncheck.Options.Input ranges the certificate was produced under.
	InputWords []uint32
	// MaxPoints caps the injected boundaries. Boundaries whose resume point
	// falls inside a flagged region's hazard window are always kept; the
	// certified remainder is sampled evenly. Zero means exhaustive.
	MaxPoints int
}

// RegionOutcome is the dynamic fate of one flagged region.
type RegionOutcome struct {
	Region  wncheck.Region
	Witness *Divergence // first divergence whose resume PC fell in the window; nil if none
}

// CrossReport summarizes a cross-validation campaign.
type CrossReport struct {
	Target          string
	Policy          string
	GoldenCycles    uint64
	Worlds          int // golden worlds compared against (1 + one per input advance modeled)
	Points          int // boundaries injected
	CertifiedPoints int // injected boundaries inside proven territory
	// Violations are divergences at certified boundaries: the proof said
	// this could not happen.
	Violations []Divergence
	// Outcomes report each flagged region in certificate order.
	Outcomes []RegionOutcome
	// Residual counts divergences inside flagged windows beyond each
	// region's first witness. Expected for real hazards (many kills in the
	// window diverge); never a soundness problem.
	Residual int

	// ProgressChecked is true when the certificate carried a finite
	// forward-progress bound, enabling the static-vs-dynamic comparison.
	ProgressChecked bool
	// MaxCommitGap is the dynamic maximum cycle distance between
	// consecutive commit boundaries (run start, each executed skim point,
	// halt) observed in the golden run.
	MaxCommitGap uint64
	// StaticRegionBound is the certificate's per-region WCEC bound; the
	// dynamic gap exceeding it is a ProgressViolation — the analyzer's
	// worst case was not an upper bound.
	StaticRegionBound uint64
	ProgressViolation bool
}

// Validated reports whether both directions of the contract held: no
// divergence in proven territory, and every flagged region witnessed.
func (r *CrossReport) Validated() bool {
	if len(r.Violations) > 0 || r.ProgressViolation {
		return false
	}
	for _, o := range r.Outcomes {
		if o.Witness == nil {
			return false
		}
	}
	return true
}

func (r *CrossReport) String() string {
	witnessed := 0
	for _, o := range r.Outcomes {
		if o.Witness != nil {
			witnessed++
		}
	}
	return fmt.Sprintf("crossvalidate: %s under %s: %d points (%d certified clean), %d/%d regions witnessed, %d violations, %d residual",
		r.Target, r.Policy, r.Points, r.CertifiedPoints, witnessed, len(r.Outcomes), len(r.Violations), r.Residual)
}

// goldenWorld is one uninterrupted pure-CPU execution of the target against
// one input world: the per-instruction resume PCs and costs (world 0 only —
// the boundary schedule), and the final NV data.
type goldenWorld struct {
	pcs    []uint32
	costs  []uint8 // per-instruction cycle costs
	cycles uint64
	data   []byte
	// maxCommitGap is the largest cycle distance between consecutive
	// commit boundaries: run start, each executed skim point (whose own
	// cost is charged to the region it ends), and halt.
	maxCommitGap uint64
}

// GoldenProgress measures the dynamic forward-progress profile of one
// uninterrupted run: the maximum cycle gap between consecutive commit
// boundaries (run start, each executed skim point, halt) and the total
// cycle count. This is the dynamic half of the per-region WCEC contract —
// the gap must never exceed the certificate's static region bound.
func GoldenProgress(t Target, cfg Config) (maxGap, total uint64, err error) {
	if cfg.Mem == (mem.Config{}) {
		cfg.Mem = mem.DefaultConfig()
	}
	g, err := goldenRun(t, cfg, nil, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("faultinject: %s: golden run: %w", t.Name, err)
	}
	return g.maxCommitGap, g.cycles, nil
}

// goldenRun executes the target uninterrupted on a bare CPU — no policy, so
// the per-instruction PC trace is exactly the boundary → resume-PC map the
// injected runs share (kill cycles are pure CPU cycles in both). bump
// advances every input word before the run, producing the alternate-world
// goldens.
func goldenRun(t Target, cfg Config, inputWords []uint32, bump uint32) (*goldenWorld, error) {
	m := mem.New(cfg.Mem)
	if err := m.LoadProgram(t.Image); err != nil {
		return nil, err
	}
	if t.Install != nil {
		if err := t.Install(m); err != nil {
			return nil, err
		}
	}
	if bump != 0 {
		for _, w := range inputWords {
			v, err := m.LoadWord(w)
			if err != nil {
				return nil, fmt.Errorf("input word %#08x: %w", w, err)
			}
			if err := m.StoreWord(w, v+bump); err != nil {
				return nil, err
			}
		}
	}
	c := cpu.New(m)
	c.SetAmenablePCs(t.Amenable)

	g := &goldenWorld{}
	budget := cfg.goldenBudget()
	for !c.Halted {
		if g.cycles > budget {
			return nil, errNoHalt(budget)
		}
		pc := c.Regs[isa.PC]
		cost, err := c.Step()
		if err != nil {
			return nil, err
		}
		g.pcs = append(g.pcs, pc)
		g.costs = append(g.costs, uint8(cost.Cycles))
		g.cycles += uint64(cost.Cycles)
	}
	g.data = make([]byte, cfg.Mem.DataBytes)
	if err := m.ReadData(mem.DataBase, g.data); err != nil {
		return nil, err
	}

	// Measure the dynamic commit gaps against the instruction image: a
	// boundary falls after every executed SKM, plus run start and halt.
	// Each image word is decoded once, not once per execution; executed PCs
	// are word-aligned (Step faults on any other).
	skm := make([]bool, len(t.Image)/isa.InstBytes)
	for slot := range skm {
		w := binary.LittleEndian.Uint32(t.Image[slot*isa.InstBytes:])
		in, err := isa.Decode(isa.Word(w))
		skm[slot] = err == nil && in.Op == isa.OpSkm
	}
	var gap uint64
	for i, pc := range g.pcs {
		gap += uint64(g.costs[i])
		if slot := int(pc-mem.CodeBase) / isa.InstBytes; slot >= 0 && slot < len(skm) && skm[slot] {
			if gap > g.maxCommitGap {
				g.maxCommitGap = gap
			}
			gap = 0
		}
	}
	if gap > g.maxCommitGap {
		g.maxCommitGap = gap
	}
	return g, nil
}

// maskInputs zeroes the declared input words in a copy of an NV data image,
// so world comparison ignores the input locations themselves (they differ
// by construction after an advance).
func maskInputs(data []byte, inputWords []uint32) []byte {
	if len(inputWords) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	for _, w := range inputWords {
		off := int(w - mem.DataBase)
		if off >= 0 && off+4 <= len(out) {
			binary.LittleEndian.PutUint32(out[off:], 0)
		}
	}
	return out
}

// hazardWindow reports whether a resume PC falls inside the kill window of
// a flagged region. The window is one instruction wider than the region on
// both sides: killing just past the region's last instruction is what
// exposes a WAR/RMW (the write has landed, replay re-reads it), and killing
// at the first instruction costs nothing to include.
func hazardWindow(r wncheck.Region, pc uint32) bool {
	return pc >= r.Start && pc <= r.End+isa.InstBytes
}

// CrossValidate runs the certificate's contract against the device. The
// certificate must describe t.Image (hashes are checked).
//
// The selected kills run on the same trunk/fork walk as RunLockstep: one
// trunk executes the policy run once, each kill forks it, and a fork that
// re-converges with the trunk takes the uninterrupted run's outcome
// without executing its suffix. The input-word advance is applied to the
// fork right after its forced failure. A policy that cannot fork gets one
// run from reset per kill instead; the report is identical either way.
func CrossValidate(t Target, cfg CrossConfig, cert *wncheck.Certificate) (*CrossReport, error) {
	return crossValidate(t, cfg, cert, false)
}

// crossValidate is CrossValidate, resolving every kill with its own run
// from reset when naive is set.
func crossValidate(t Target, cfg CrossConfig, cert *wncheck.Certificate, naive bool) (*CrossReport, error) {
	if cert == nil {
		return nil, fmt.Errorf("crossvalidate: nil certificate")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("crossvalidate: Config.Policy is required")
	}
	if cfg.Mem == (mem.Config{}) {
		cfg.Mem = mem.DefaultConfig()
	}
	if cfg.Device == (energy.DeviceConfig{}) {
		cfg.Device = energy.DefaultDeviceConfig()
	}
	sum := sha256.Sum256(t.Image)
	if got := hex.EncodeToString(sum[:]); got != cert.ImageSHA256 {
		return nil, fmt.Errorf("crossvalidate: %s: certificate is for image %s, target is %s", t.Name, cert.ImageSHA256, got)
	}

	world0, err := goldenRun(t, cfg.Config, cfg.InputWords, 0)
	if err != nil {
		return nil, fmt.Errorf("crossvalidate: %s: golden run: %w", t.Name, err)
	}
	goldens := [][]byte{maskInputs(world0.data, cfg.InputWords)}
	if len(cfg.InputWords) > 0 {
		world1, err := goldenRun(t, cfg.Config, cfg.InputWords, 1)
		if err != nil {
			return nil, fmt.Errorf("crossvalidate: %s: world-1 golden run: %w", t.Name, err)
		}
		goldens = append(goldens, maskInputs(world1.data, cfg.InputWords))
	}
	if cfg.Budget == 0 {
		cfg.Budget = 4*world0.cycles + 65536
	}

	rep := &CrossReport{
		Target:       t.Name,
		Policy:       cfg.Policy().Name(),
		GoldenCycles: world0.cycles,
		Worlds:       len(goldens),
		MaxCommitGap: world0.maxCommitGap,
	}
	// Forward-progress direction of the contract: the dynamic worst
	// inter-commit gap must stay within the certified static region bound.
	if pr := cert.Progress; pr != nil && pr.RegionsFinite {
		rep.ProgressChecked = true
		rep.StaticRegionBound = pr.MaxRegionWCEC
		rep.ProgressViolation = world0.maxCommitGap > pr.MaxRegionWCEC
	}
	for _, fr := range cert.Flagged {
		rep.Outcomes = append(rep.Outcomes, RegionOutcome{Region: fr})
	}

	// Every instruction boundary of the golden run: the cycle at which to
	// kill and the PC execution resumes from (= the PC about to execute).
	type boundary struct {
		cycle   uint64
		instr   uint64
		pc      uint32
		flagged bool
	}
	flagged := make([]bool, len(world0.pcs))
	nFlagged := 0
	for i, pc := range world0.pcs {
		for _, fr := range cert.Flagged {
			if hazardWindow(fr, pc) {
				flagged[i] = true
				nFlagged++
				break
			}
		}
	}

	// Past MaxPoints, keep every flagged-window boundary (they carry the
	// witnesses) and after them an even sample of the certified remainder:
	// certified boundaries k*nCert/keep for k = 0..keep-1.
	n, nCert := len(world0.pcs), len(world0.pcs)-nFlagged
	sampled := cfg.MaxPoints > 0 && n > cfg.MaxPoints
	keep := nCert
	if sampled {
		keep = min(max(cfg.MaxPoints-nFlagged, 0), nCert)
	}
	var selected, picks []boundary
	var cum uint64
	certIdx := 0
	for i, pc := range world0.pcs {
		b := boundary{cycle: cum, instr: uint64(i), pc: pc, flagged: flagged[i]}
		cum += uint64(world0.costs[i])
		switch {
		case !sampled || b.flagged:
			selected = append(selected, b)
		case len(picks) < keep && certIdx == len(picks)*nCert/keep:
			picks = append(picks, b)
		}
		if !b.flagged {
			certIdx++
		}
	}
	selected = append(selected, picks...)

	var onKill func(*mem.Memory)
	if len(cfg.InputWords) > 0 {
		onKill = func(m *mem.Memory) {
			for _, w := range cfg.InputWords {
				if v, err := m.LoadWord(w); err == nil {
					_ = m.StoreWord(w, v+1)
				}
			}
		}
	}

	// Resolve every selected kill on the shared trunk/fork walk (visited in
	// ascending cycle order), then credit the outcomes in selection order.
	type outcome struct {
		div                  Divergence
		diverged, unaffected bool
	}
	outs := make([]outcome, len(selected))
	kills := make([]uint64, len(selected))
	for i, b := range selected {
		kills[i] = b.cycle
	}
	trunk, err := inject(t, cfg.Config, kills, world0.cycles, onKill, naive, func(i int, got *runResult) {
		if got == nil {
			outs[i].unaffected = true
			return
		}
		outs[i].div, outs[i].diverged = crossDiff(selected[i].cycle, selected[i].instr, goldens, got, cfg.InputWords)
	})
	if err != nil {
		return nil, fmt.Errorf("crossvalidate: %s: %w", t.Name, err)
	}
	// A kill the walk left unaffected ends exactly as the uninterrupted
	// policy run does: take that outcome from the trunk's own run to halt.
	var (
		base         Divergence
		baseDiverged bool
	)
	if trunk != nil {
		if err := trunk.runTo(noKill, cfg.Budget, nil); err != nil {
			return nil, fmt.Errorf("crossvalidate: %s: uninterrupted run: %w", t.Name, err)
		}
		got, err := trunk.result(nil)
		if err != nil {
			return nil, fmt.Errorf("crossvalidate: %s: uninterrupted run: %w", t.Name, err)
		}
		base, baseDiverged = crossDiff(0, 0, goldens, &got, cfg.InputWords)
	}

	for k, b := range selected {
		div, diverged := outs[k].div, outs[k].diverged
		if outs[k].unaffected {
			div, diverged = base, baseDiverged
			div.KillCycle, div.KillInstruction = b.cycle, b.instr
		}
		rep.Points++
		if !b.flagged {
			rep.CertifiedPoints++
		}
		if !diverged {
			continue
		}
		if !b.flagged {
			rep.Violations = append(rep.Violations, div)
			continue
		}
		credited := false
		for i := range rep.Outcomes {
			if rep.Outcomes[i].Witness == nil && hazardWindow(rep.Outcomes[i].Region, b.pc) {
				d := div
				rep.Outcomes[i].Witness = &d
				credited = true
			}
		}
		if !credited {
			rep.Residual++
		}
	}
	return rep, nil
}

// crossDiff compares an injected run against every golden world; a run
// matching none of them is a divergence, reported against world 0.
func crossDiff(cycle, instr uint64, goldens [][]byte, got *runResult, inputWords []uint32) (Divergence, bool) {
	if !got.halted {
		return Divergence{KillCycle: cycle, KillInstruction: instr}, true
	}
	masked := maskInputs(got.data, inputWords)
	for _, g := range goldens {
		if bytes.Equal(g, masked) {
			return Divergence{}, false
		}
	}
	d := Divergence{KillCycle: cycle, KillInstruction: instr, Halted: true}
	wordDiff(&d, goldens[0], masked)
	return d, true
}
