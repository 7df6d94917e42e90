package energy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"whatsnext/internal/cpu"
)

// uncachedPower is the harvest lookup written out from its definition: the
// sample index at elapsed cycle t is the simulated time in seconds times
// the sample rate, truncated, and wraps around the trace.
func uncachedPower(d DeviceConfig, tr *Trace, t uint64) float64 {
	now := float64(t) * (1 / d.ClockHz)
	idx := uint64(now * tr.SampleHz)
	return tr.Power[idx%uint64(len(tr.Power))] * d.HarvestEff
}

// distinctTrace returns an n-sample trace whose samples all differ, so a
// lookup that lands in the wrong sample cannot go unnoticed.
func distinctTrace(hz float64, n int) *Trace {
	tr := &Trace{SampleHz: hz, Power: make([]float64, n)}
	for i := range tr.Power {
		tr.Power[i] = 1e-4 * float64(i+1)
	}
	return tr
}

// TestHarvestCacheMatchesIndexFormula: the cached harvest sample must equal
// the uncached index formula at every elapsed cycle, across sample
// boundaries and the trace's wrap-around, at the paper's 1 kHz and at rates
// whose boundaries fall on no round cycle count.
func TestHarvestCacheMatchesIndexFormula(t *testing.T) {
	d := DefaultDeviceConfig()
	for _, hz := range []float64{1000, 997, 3, d.ClockHz / 7, 1000 * math.Pi} {
		tr := distinctTrace(hz, 5)
		s := NewSupply(d, tr)
		per := d.ClockHz / hz // cycles per sample
		check := func(t0 uint64) {
			if got, want := s.samplePowerAt(t0), uncachedPower(d, tr, t0); got != want {
				t.Fatalf("%g Hz, cycle %d: cached power %g, index formula %g", hz, t0, got, want)
			}
		}
		// Every cycle in a window around each of the first 12 boundaries
		// (two and a bit trips round the 5-sample trace), walking forward
		// as execution does, so hits after each refill are checked too.
		for k := 1; k <= 12; k++ {
			b := uint64(float64(k) * per)
			from := b - min(b, 200)
			for c := from; c < b+200; c++ {
				check(c)
			}
		}
		// A coarse forward sweep, and lookups that move backwards.
		for c := uint64(0); c < uint64(12*per); c += uint64(per/13) + 1 {
			check(c)
		}
		for c := uint64(3 * per); c > 0; c /= 2 {
			check(c)
		}
	}
}

// TestHarvestCacheWithoutTrace: no trace and an empty trace both harvest
// nothing, cached or not.
func TestHarvestCacheWithoutTrace(t *testing.T) {
	for _, tr := range []*Trace{nil, ConstantTrace(1e-3, 1000, 0)} {
		s := NewSupply(DefaultDeviceConfig(), tr)
		for _, c := range []uint64{0, 1, 24000, 1 << 40} {
			if p := s.samplePowerAt(c); p != 0 {
				t.Fatalf("trace %v, cycle %d: power %g, want 0", tr, c, p)
			}
		}
	}
}

// randomCosts is a pseudo-random instruction cost stream: 1-16 cycles,
// occasionally with non-volatile writes.
func randomCosts(seed int64, n int) []cpu.Cost {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]cpu.Cost, n)
	for i := range costs {
		costs[i] = cpu.Cost{Cycles: uint32(1 + rng.Intn(cpu.MaxInstrCycles))}
		if rng.Intn(8) == 0 {
			costs[i].NVWrites = 1 + rng.Intn(2)
		}
	}
	return costs
}

// TestSpendRunMatchesSpendLoop: spending a long cost stream through
// SpendRun, in windows of random length, must leave the supply bit for bit
// where a plain per-instruction Spend loop leaves it — stored energy,
// EnergyCharged, EnergyDrawn and the cycle and outage counts — with and
// without a backup surcharge, across many brown-outs, sample boundaries
// and trace wrap-arounds. Besides the paper's 10 uF device it runs a
// 100 nF one, whose stored energy is small enough that a last-bit change
// in one instruction's draw survives into the totals.
func TestSpendRunMatchesSpendLoop(t *testing.T) {
	small := DefaultDeviceConfig()
	small.CapacitanceF = 100e-9
	devices := map[string]DeviceConfig{"10uF": DefaultDeviceConfig(), "100nF": small}
	costs := randomCosts(1, 400_000)
	for name, d := range devices {
		for _, hz := range []float64{1000, 997, d.ClockHz / 7} {
			for _, backup := range []float64{0, 0.3} {
				where := fmt.Sprintf("%s, %g Hz, backup %g", name, hz, backup)
				tr := SyntheticWiFiTrace(3, TraceConfig{
					SampleHz: hz, Seconds: 0.05, BasePower: 2e-4,
					BurstPower: 5e-3, BurstProb: 0.05, BurstLen: 6, Jitter: 0.4,
				})
				ref, run := NewSupply(d, tr), NewSupply(d, tr)
				recharge := func(s *Supply) {
					if _, ok := s.WaitForPower(); !ok {
						t.Fatalf("%s: trace cannot recharge", where)
					}
				}
				for _, c := range costs {
					extra := float64(c.NVWrites)*d.NVWriteEnergy + float64(c.Cycles)*backup*d.EnergyPerCycle
					if !ref.Spend(c.Cycles, extra) {
						recharge(ref)
					}
				}
				rng := rand.New(rand.NewSource(2))
				for rest := costs; len(rest) > 0; {
					w := min(len(rest), 1+rng.Intn(3000))
					n, ok := run.SpendRun(rest[:w], backup)
					if n == 0 || n > w || ok != (n == w && run.Powered()) {
						t.Fatalf("%s: SpendRun(%d costs) = %d, %v", where, w, n, ok)
					}
					rest = rest[n:]
					if !ok {
						recharge(run)
					}
				}
				if ref.Outages < 10 {
					t.Fatalf("%s: only %d outages; the stream must cross many", where, ref.Outages)
				}
				bits := math.Float64bits
				if bits(ref.energy) != bits(run.energy) || bits(ref.EnergyCharged) != bits(run.EnergyCharged) ||
					bits(ref.EnergyDrawn) != bits(run.EnergyDrawn) {
					t.Fatalf("%s: energy (stored, charged, drawn) = (%v, %v, %v) per Spend, (%v, %v, %v) per SpendRun",
						where, ref.energy, ref.EnergyCharged, ref.EnergyDrawn, run.energy, run.EnergyCharged, run.EnergyDrawn)
				}
				if ref.CyclesOn != run.CyclesOn || ref.CyclesOff != run.CyclesOff || ref.Outages != run.Outages {
					t.Fatalf("%s: (on, off, outages) = (%d, %d, %d) per Spend, (%d, %d, %d) per SpendRun",
						where, ref.CyclesOn, ref.CyclesOff, ref.Outages, run.CyclesOn, run.CyclesOff, run.Outages)
				}
			}
		}
	}
}

// TestSpendRunUnpowered: a browned-out supply spends nothing.
func TestSpendRunUnpowered(t *testing.T) {
	s := NewSupply(DefaultDeviceConfig(), ConstantTrace(0, 1000, 1))
	s.ForceOutage()
	before := *s
	if n, ok := s.SpendRun(randomCosts(1, 10), 0); n != 0 || ok {
		t.Fatalf("SpendRun on an unpowered supply = %d, %v", n, ok)
	}
	if *s != before {
		t.Fatal("SpendRun on an unpowered supply changed its state")
	}
}

// TestWaitForPowerWithoutTrace: with no trace, or an empty one, nothing
// can recharge the capacitor, so WaitForPower must give up at once instead
// of panicking or spinning.
func TestWaitForPowerWithoutTrace(t *testing.T) {
	for name, tr := range map[string]*Trace{"nil": nil, "empty": ConstantTrace(1e-3, 1000, 0)} {
		t.Run(name, func(t *testing.T) {
			s := NewSupply(DefaultDeviceConfig(), tr)
			s.ForceOutage()
			done := make(chan bool, 1)
			go func() {
				_, ok := s.WaitForPower()
				done <- ok
			}()
			select {
			case ok := <-done:
				if ok {
					t.Fatal("WaitForPower reported a recharge without any harvest")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("WaitForPower did not return")
			}
		})
	}
}

// BenchmarkSupplySpendRun settles 4096-instruction windows.
func BenchmarkSupplySpendRun(b *testing.B) {
	d := DefaultDeviceConfig()
	costs := randomCosts(1, 4096)
	s := NewSupply(d, ConstantTrace(1, 1000, 3600))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.SpendRun(costs, 0); !ok {
			b.Fatal("brown-out under ample power")
		}
	}
}

// BenchmarkSupplySpend is the per-instruction path over the same costs.
func BenchmarkSupplySpend(b *testing.B) {
	d := DefaultDeviceConfig()
	costs := randomCosts(1, 4096)
	s := NewSupply(d, ConstantTrace(1, 1000, 3600))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range costs {
			if !s.Spend(c.Cycles, float64(c.NVWrites)*d.NVWriteEnergy) {
				b.Fatal("brown-out under ample power")
			}
		}
	}
}
