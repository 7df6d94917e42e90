package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/quality"
	"whatsnext/internal/workloads"
)

// The Figure 1 scenario: inputs arrive continuously while the device rides
// power outages. A conventional build must finish each input exactly and
// falls behind the arrival rate, dropping inputs (input F arrives while
// the device is still processing D); the WN build commits an acceptable
// approximation at the first outage past a skim point and keeps up.

// StreamRow summarizes one build's behaviour on the input stream.
type StreamRow struct {
	Benchmark string
	Config    string // "precise" or "wn-4bit"
	Arrivals  int
	Processed int
	Dropped   int
	MedianLag float64 // completion lag in units of the arrival period
	NRMSE     float64 // median output error over processed inputs
}

// StreamStudy runs an input stream against both builds of each benchmark.
// A new input lands every arrival period (chosen per benchmark as ~60% of
// the precise build's expected wall completion, so the conventional build
// cannot keep up); inputs arriving while the device is busy are dropped.
func StreamStudy(proto Protocol, arrivals int) ([]StreamRow, error) {
	if arrivals <= 0 {
		arrivals = 16
	}
	var rows []StreamRow
	for _, b := range workloads.All() {
		p := proto.params(b)
		precise, err := PreciseVariant(b, p).Compile()
		if err != nil {
			return nil, err
		}
		wn, err := WNVariant(b, p, 4).Compile()
		if err != nil {
			return nil, err
		}
		// Calibrate the arrival period from the precise build's wall
		// completion time on a reference trace.
		ref := intermittentSystem(core.ProcClank, wifiTrace(55), false)
		if err := ref.Load(precise); err != nil {
			return nil, err
		}
		res, err := ref.RunInput(b.Inputs(p, 1))
		if err != nil {
			return nil, err
		}
		period := res.TotalCycles() * 6 / 10

		for _, cfg := range []struct {
			name string
			c    *compiler.Compiled
		}{{"precise", precise}, {"wn-4bit", wn}} {
			row, err := streamOne(b, p, cfg.c, period, arrivals)
			if err != nil {
				return nil, err
			}
			row.Config = cfg.name
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func streamOne(b *workloads.Benchmark, p workloads.Params, c *compiler.Compiled, period uint64, arrivals int) (StreamRow, error) {
	sys := core.NewSystem(core.DefaultConfig(), energy.SyntheticWiFiTrace(55, energy.DefaultTraceConfig()))
	if err := sys.Load(c); err != nil {
		return StreamRow{}, err
	}
	row := StreamRow{Benchmark: b.Name, Arrivals: arrivals}
	var lags, errs []float64
	now := uint64(0) // wall-clock in cycles, tracked via the supply
	for k := 0; k < arrivals; k++ {
		arrival := uint64(k) * period
		if now > arrival {
			// Device still busy with an older input: this one is lost.
			row.Dropped++
			continue
		}
		in := b.Inputs(p, int64(200+k))
		golden := b.Golden(p, in)
		res, err := sys.RunInput(in)
		if err != nil {
			return StreamRow{}, err
		}
		out, err := sys.Output(b.Output)
		if err != nil {
			return StreamRow{}, err
		}
		now = arrival + res.TotalCycles()
		row.Processed++
		lags = append(lags, float64(res.TotalCycles())/float64(period))
		errs = append(errs, quality.NRMSE(out, golden))
	}
	row.MedianLag = quality.Median(lags)
	row.NRMSE = quality.Median(errs)
	return row, nil
}

// PrintStream renders the study.
func PrintStream(w io.Writer, rows []StreamRow) {
	fmt.Fprintf(w, "Figure 1 scenario: streaming inputs under harvested power (arrival period = 60%% of precise completion)\n")
	fmt.Fprintf(w, "%-10s %-9s %9s %10s %9s %12s %10s\n",
		"Benchmark", "Config", "arrivals", "processed", "dropped", "median lag", "NRMSE %")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-9s %9d %10d %9d %11.2fx %10.3f\n",
			r.Benchmark, r.Config, r.Arrivals, r.Processed, r.Dropped, r.MedianLag, r.NRMSE)
	}
}
