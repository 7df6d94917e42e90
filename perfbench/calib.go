package main

import (
	"runtime"
	"sync"
)

// Host-speed calibration. The shared 2-vCPU host the baseline was measured
// on drifts in speed by up to 1.7x over tens of seconds to minutes, which no
// statistic inside one run removes. Every timing metric is therefore
// reported at reference host speed, raw time x refCalibrationMS / (this
// run's median calibration time), with the raw value on the report line.
// The calibration
// is a fixed interpreter-style kernel defined here (a random program
// stepping over a 512 KiB memory, like the simulator's fetch-dispatch-
// load/store loop) that shares no code with the repository, so no change
// to the simulator moves it. It runs between passes, on as many
// goroutines as the engine has workers, after a full collection so that
// no garbage the operations left behind is collected inside it.

const (
	// refCalibrationMS is the median calibration time on the baseline host
	// in a quiet period; it only fixes the scale of normalized times.
	refCalibrationMS    = 12.0
	calibrationSteps    = 4_000_000
	calibrationsPerPass = 3
	calibrationMemWords = 128 << 10
	calibrationProgLen  = 4096
)

type calibrator struct {
	mem     [][]uint32 // one memory per worker, allocated once
	prog    []uint32
	samples []float64 // ms, slowest worker per calibration
	sink    uint32
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{prog: make([]uint32, calibrationProgLen)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.prog {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.prog[i] = uint32(x)
	}
	for w := 0; w < workers; w++ {
		c.mem = append(c.mem, make([]uint32, calibrationMemWords))
	}
	return c
}

// sample runs calibrationsPerPass calibrations.
func (c *calibrator) sample() {
	for k := 0; k < calibrationsPerPass; k++ {
		runtime.GC()
		var wg sync.WaitGroup
		times := make([]float64, len(c.mem))
		regs := make([]uint32, len(c.mem))
		for w := range c.mem {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := now()
				regs[w] = c.kernel(c.mem[w])
				times[w] = 1e3 * seconds(t)
			}()
		}
		wg.Wait()
		slowest := 0.0
		for w, t := range times {
			slowest = max(slowest, t)
			c.sink += regs[w]
		}
		c.samples = append(c.samples, slowest)
	}
}

// kernel interprets the fixed random program for calibrationSteps steps.
func (c *calibrator) kernel(mem []uint32) uint32 {
	var regs [16]uint32
	pc := 0
	for step := 0; step < calibrationSteps; step++ {
		in := c.prog[pc]
		rd, rs := (in>>3)&15, (in>>7)&15
		switch in & 7 {
		case 0:
			regs[rd] += regs[rs] + in>>11
		case 1:
			regs[rd] = mem[(regs[rs]+in>>11)&(calibrationMemWords-1)]
		case 2:
			mem[(regs[rd]+in>>11)&(calibrationMemWords-1)] = regs[rs]
		case 3:
			regs[rd] *= regs[rs] | 1
		case 4:
			regs[rd] ^= regs[rs] >> 3
		case 5:
			if regs[rd]&1 == 0 {
				pc = int(in>>11) & (calibrationProgLen - 1)
				continue
			}
		default:
			regs[rd] -= regs[rs]
		}
		pc = (pc + 1) & (calibrationProgLen - 1)
	}
	return regs[0]
}

// factor converts a raw time of this run to reference host speed.
func (c *calibrator) factor() float64 { return refCalibrationMS / median(c.samples) }
