package energy

import (
	"math"

	"whatsnext/internal/cpu"
)

// DeviceConfig describes the electrical parameters of the simulated device.
type DeviceConfig struct {
	ClockHz        float64 // processor clock; the paper runs the M0+ at 24 MHz
	CapacitanceF   float64 // storage capacitor; 10 uF in the paper
	VMax           float64 // capacitor ceiling (harvester clamp)
	VOn            float64 // turn-on threshold (hysteresis upper bound)
	VOff           float64 // brown-out threshold
	EnergyPerCycle float64 // joules per processor cycle (constant, per paper)
	NVWriteEnergy  float64 // extra joules per non-volatile data write
	HarvestEff     float64 // harvester conversion efficiency in (0,1]
}

// DefaultDeviceConfig returns the parameters used throughout the
// reproduction: 24 MHz clock, 10 uF capacitor with a 1.8-3.0 V operating
// window and 2 nJ/cycle (MSP430/M0+-class energy at 3 V including the NV
// memory system), which yields roughly 19k cycles (about 0.8 ms) per full
// charge — the paper's millisecond-scale active periods.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		ClockHz:        24e6,
		CapacitanceF:   10e-6,
		VMax:           3.3,
		VOn:            3.0,
		VOff:           1.8,
		EnergyPerCycle: 2e-9,
		NVWriteEnergy:  500e-12,
		HarvestEff:     0.7,
	}
}

// UsableEnergy returns the joules available between VOn and VOff.
func (c DeviceConfig) UsableEnergy() float64 {
	return 0.5 * c.CapacitanceF * (c.VOn*c.VOn - c.VOff*c.VOff)
}

// CyclesPerCharge estimates how many cycles a full charge sustains with no
// concurrent harvesting.
func (c DeviceConfig) CyclesPerCharge() uint64 {
	return uint64(c.UsableEnergy() / c.EnergyPerCycle)
}

// Supply combines a harvest trace with a capacitor and exposes the
// charge/discharge process at cycle granularity to the intermittent
// runtimes.
type Supply struct {
	cfg   DeviceConfig
	trace *Trace

	energy   float64 // joules currently stored
	maxE     float64
	onE      float64 // stored energy at VOn
	offE     float64 // stored energy at VOff
	powered  bool
	cycleSec float64 // seconds per cycle

	// The trace sample in effect over elapsed cycles [sampleFrom,
	// sampleTo), and its harvested power; see samplePowerAt.
	sampleFrom, sampleTo uint64
	samplePower          float64

	// Totals.
	CyclesOn      uint64 // cycles executed while powered
	CyclesOff     uint64 // cycles spent waiting for charge
	Outages       uint64 // number of brown-outs observed
	EnergyDrawn   float64
	EnergyCharged float64
}

// NewSupply builds a supply from a device config and a harvest trace. The
// capacitor starts full so the first active period begins at cycle zero.
func NewSupply(cfg DeviceConfig, trace *Trace) *Supply {
	s := &Supply{
		cfg:      cfg,
		trace:    trace,
		maxE:     0.5 * cfg.CapacitanceF * cfg.VMax * cfg.VMax,
		onE:      0.5 * cfg.CapacitanceF * cfg.VOn * cfg.VOn,
		offE:     0.5 * cfg.CapacitanceF * cfg.VOff * cfg.VOff,
		cycleSec: 1 / cfg.ClockHz,
	}
	s.energy = s.onE
	s.powered = true
	return s
}

// Config returns the device parameters.
func (s *Supply) Config() DeviceConfig { return s.cfg }

// Voltage returns the current capacitor voltage.
func (s *Supply) Voltage() float64 {
	return math.Sqrt(2 * s.energy / s.cfg.CapacitanceF)
}

// Stored returns the joules currently stored in the capacitor.
func (s *Supply) Stored() float64 { return s.energy }

// Powered reports whether the device is currently on.
func (s *Supply) Powered() bool { return s.powered }

// Headroom returns the joules stored above the brown-out threshold. Batch
// schedulers divide it by a worst-case per-cycle drain to bound how many
// cycles can run without a brown-out.
func (s *Supply) Headroom() float64 { return s.energy - s.offE }

// Now returns the simulated time in seconds.
func (s *Supply) Now() float64 {
	return float64(s.CyclesOn+s.CyclesOff) * s.cycleSec
}

// TotalCycles returns elapsed wall-clock time in cycle units (on + off).
func (s *Supply) TotalCycles() uint64 { return s.CyclesOn + s.CyclesOff }

// sampleIndex returns the index, before wrapping, of the trace sample in
// effect at elapsed cycle t. Every harvest lookup, cached or not,
// evaluates this one formula.
func (s *Supply) sampleIndex(t uint64) uint64 {
	return uint64(float64(t) * s.cycleSec * s.trace.SampleHz)
}

// harvestPower returns the harvested power at elapsed cycle t, wrapping
// the trace.
func (s *Supply) harvestPower(t uint64) float64 {
	if s.trace == nil || len(s.trace.Power) == 0 {
		return 0
	}
	return s.trace.Power[s.sampleIndex(t)%uint64(len(s.trace.Power))] * s.cfg.HarvestEff
}

// samplePowerAt returns harvestPower(t) from the cached sample, refilling
// the cache when t lies outside the cycle range it covers.
func (s *Supply) samplePowerAt(t uint64) float64 {
	if t-s.sampleFrom >= s.sampleTo-s.sampleFrom {
		s.fillSample(t)
	}
	return s.samplePower
}

// fillSample caches the sample in effect at t together with the exact
// range [t, end) of elapsed cycles over which sampleIndex stays constant.
// sampleIndex is monotone in t, so the end is found by evaluating it
// around an estimate of the next sample's first cycle; no rounding case
// can therefore differ from a per-cycle lookup. Where no estimate is
// usable (no trace, a degenerate rate, or an end beyond 2^62 cycles) the
// range covers t alone, which is trivially exact.
func (s *Supply) fillSample(t uint64) {
	s.samplePower = s.harvestPower(t)
	s.sampleFrom, s.sampleTo = t, t+1
	if s.trace == nil || len(s.trace.Power) == 0 {
		s.sampleTo = math.MaxUint64
		return
	}
	k := s.sampleIndex(t)
	est := float64(k+1) / (s.cycleSec * s.trace.SampleHz)
	if !(est > 0 && est < 1<<62) {
		return
	}
	end := max(uint64(est), t+1)
	for end > t+1 && s.sampleIndex(end-1) > k {
		end--
	}
	for s.sampleIndex(end) <= k {
		end++
	}
	s.sampleTo = end
}

// ledger is the part of the supply's state one instruction's spend
// updates. Spend and SpendRun both advance it through settle, so a run
// performs exactly the floating-point operations of a loop of Spend calls.
type ledger struct {
	energy, charged, drawn float64
	cyclesOn               uint64
}

func (s *Supply) ledger() ledger {
	return ledger{s.energy, s.EnergyCharged, s.EnergyDrawn, s.CyclesOn}
}

func (s *Supply) store(l ledger) {
	s.energy, s.EnergyCharged, s.EnergyDrawn, s.CyclesOn = l.energy, l.charged, l.drawn, l.cyclesOn
}

// charge adds n cycles of harvest at power p to a capacitor holding e
// joules, clamped at its ceiling, and returns the new energy and the
// joules harvested.
func (s *Supply) charge(e, p float64, n uint64) (float64, float64) {
	in := p * float64(n) * s.cycleSec
	if e += in; e > s.maxE {
		e = s.maxE
	}
	return e, in
}

// settle is one Spend's arithmetic: charge for cycles at power p, then
// draw cycles*EnergyPerCycle+extra.
func (s *Supply) settle(l ledger, p float64, cycles uint32, extra float64) ledger {
	var in float64
	l.energy, in = s.charge(l.energy, p, uint64(cycles))
	l.charged += in
	draw := float64(cycles)*s.cfg.EnergyPerCycle + extra
	l.drawn += draw
	l.energy -= draw
	l.cyclesOn += uint64(cycles)
	return l
}

// brownOut powers the device down after the capacitor crossed VOff.
func (s *Supply) brownOut() {
	s.energy = math.Max(s.energy, 0)
	s.powered = false
	s.Outages++
}

// Spend advances simulated time by cycles of execution, drawing
// cycles*EnergyPerCycle+extra joules while also harvesting. It returns false
// when the capacitor crosses VOff: the device browns out and the caller must
// WaitForPower before executing again.
func (s *Supply) Spend(cycles uint32, extra float64) bool {
	if !s.powered {
		return false
	}
	l := s.settle(s.ledger(), s.samplePowerAt(s.CyclesOn+s.CyclesOff), cycles, extra)
	s.store(l)
	if l.energy <= s.offE {
		s.brownOut()
		return false
	}
	return true
}

// SpendRun spends a run of executed instructions in order, each exactly as
//
//	Spend(c.Cycles, float64(c.NVWrites)*NVWriteEnergy + float64(c.Cycles)*backup*EnergyPerCycle)
//
// would, where backup is a per-cycle backup surcharge factor (NVP's; zero
// for the checkpointing runtimes). It stops at the first brown-out: n
// counts the costs spent, the one that browned out included, and ok is
// false. The supply's totals stay in locals across the run; only a trace
// sample boundary refills the harvest cache.
func (s *Supply) SpendRun(costs []cpu.Cost, backup float64) (n int, ok bool) {
	if !s.powered {
		return 0, false
	}
	l := s.ledger()
	off := s.CyclesOff
	nvE, epc := s.cfg.NVWriteEnergy, s.cfg.EnergyPerCycle
	for i, c := range costs {
		extra := float64(c.NVWrites)*nvE + float64(c.Cycles)*backup*epc
		l = s.settle(l, s.samplePowerAt(l.cyclesOn+off), c.Cycles, extra)
		if l.energy <= s.offE {
			s.store(l)
			s.brownOut()
			return i + 1, false
		}
	}
	s.store(l)
	return len(costs), true
}

// WaitForPower advances simulated time until the capacitor recharges to VOn,
// returning the number of cycles spent off. With a zero-power trace it gives
// up after the equivalent of ten trace durations and returns false.
func (s *Supply) WaitForPower() (waited uint64, ok bool) {
	if s.powered {
		return 0, true
	}
	// With no harvest at all the capacitor never recharges.
	if s.trace == nil || len(s.trace.Power) == 0 {
		return 0, false
	}
	// Step at one trace-sample granularity for fidelity to the 1 kHz trace.
	// Each step lands in a new sample, so it reads the trace uncached.
	step := uint64(s.cfg.ClockHz / s.trace.SampleHz)
	if step == 0 {
		step = 1
	}
	limit := uint64(10*s.trace.Duration()*s.cfg.ClockHz) + s.TotalCycles()
	for s.energy < s.onE {
		var in float64
		s.energy, in = s.charge(s.energy, s.harvestPower(s.TotalCycles()), step)
		s.EnergyCharged += in
		s.CyclesOff += step
		waited += step
		if s.TotalCycles() > limit {
			return waited, false
		}
	}
	s.powered = true
	return waited, true
}

// ForceOutage models an externally induced brown-out (used in failure
// injection tests): the capacitor is drained to VOff.
func (s *Supply) ForceOutage() {
	if !s.powered {
		return
	}
	s.energy = s.offE
	s.powered = false
	s.Outages++
}
