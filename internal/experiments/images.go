package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"whatsnext/internal/quality"
	"whatsnext/internal/workloads"
)

// Fig2Result reports the Conv2d output-quality comparison of Figure 2.
type Fig2Result struct {
	BaselineCycles uint64
	Budget         uint64  // shared cycle budget (the WN earliest output)
	BudgetFraction float64 // budget / baseline runtime
	BaselineNRMSE  float64 // precise build halted at the budget
	WNNRMSE        float64 // 4-bit SWP build at the same budget
	ImagePaths     []string
}

// Figure2 reproduces the motivating image comparison: at the cycle budget
// where the 4-bit WN build has its first complete approximate image, the
// precise build has only processed part of the frame and the rest is
// missing. When outDir is non-empty, PGM images are written.
func Figure2(proto Protocol, outDir string) (Fig2Result, error) {
	b := workloads.Conv2d()
	p := proto.params(b)
	in := b.Inputs(p, 1)
	golden := b.Golden(p, in)

	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return Fig2Result{}, err
	}
	full, _, err := runContinuous(precise, in, contOptions{})
	if err != nil {
		return Fig2Result{}, err
	}

	wn, err := WNVariant(b, p, 4).Compile()
	if err != nil {
		return Fig2Result{}, err
	}
	wnRun, m, err := runContinuous(wn, in, contOptions{stopAtSkim: true})
	if err != nil {
		return Fig2Result{}, err
	}
	res := Fig2Result{
		BaselineCycles: full.Cycles,
		Budget:         wnRun.Cycles,
		BudgetFraction: float64(wnRun.Cycles) / float64(full.Cycles),
	}
	if res.WNNRMSE, err = outputNRMSE(wn, m, b.Output, golden); err != nil {
		return Fig2Result{}, err
	}
	wnImg, err := wn.Layout.OutputValues(m, b.Output)
	if err != nil {
		return Fig2Result{}, err
	}

	_, m, err = runContinuous(precise, in, contOptions{cycleBudget: res.Budget})
	if err != nil {
		return Fig2Result{}, err
	}
	if res.BaselineNRMSE, err = outputNRMSE(precise, m, b.Output, golden); err != nil {
		return Fig2Result{}, err
	}
	half, err := precise.Layout.OutputValues(m, b.Output)
	if err != nil {
		return Fig2Result{}, err
	}

	if outDir != "" {
		imgs := []struct {
			name string
			px   []float64
		}{
			{"fig2a_baseline", golden},
			{"fig2b_baseline_budget", half},
			{"fig2c_wn_budget", wnImg},
		}
		for _, img := range imgs {
			path, err := writePGM(outDir, img.name, img.px, p.ImgW, p.ImgH)
			if err != nil {
				return Fig2Result{}, err
			}
			res.ImagePaths = append(res.ImagePaths, path)
		}
	}
	return res, nil
}

// PrintFigure2 renders the summary.
func PrintFigure2(w io.Writer, r Fig2Result) {
	fmt.Fprintf(w, "Figure 2: Conv2d at a %.0f%%-runtime cycle budget (baseline %d cycles)\n",
		100*r.BudgetFraction, r.BaselineCycles)
	fmt.Fprintf(w, "baseline halted at budget: NRMSE %.2f%% (bottom of the image missing)\n", r.BaselineNRMSE)
	fmt.Fprintf(w, "WN 4-bit at same budget:   NRMSE %.2f%% (complete approximate image)\n", r.WNNRMSE)
	for _, p := range r.ImagePaths {
		fmt.Fprintf(w, "wrote %s\n", p)
	}
}

// Fig16Result is the small-subword visual study.
type Fig16Result struct {
	Rows       []Fig15Row
	ImagePaths []string
}

// Figure16 writes the earliest-available Conv2d outputs for 1-, 2- and
// 3-bit subword pipelining (plus the 4-bit reference) as PGM images.
func Figure16(proto Protocol, outDir string) (Fig16Result, error) {
	b := workloads.Conv2d()
	p := proto.params(b)
	in := b.Inputs(p, 1)
	golden := b.Golden(p, in)
	base, err := preciseCycles(b, p, 1)
	if err != nil {
		return Fig16Result{}, err
	}
	var res Fig16Result
	for _, bits := range []int{1, 2, 3, 4} {
		c, err := WNVariant(b, p, bits).Compile()
		if err != nil {
			return Fig16Result{}, err
		}
		run, m, err := runContinuous(c, in, contOptions{stopAtSkim: true})
		if err != nil {
			return Fig16Result{}, err
		}
		nr, err := outputNRMSE(c, m, b.Output, golden)
		if err != nil {
			return Fig16Result{}, err
		}
		res.Rows = append(res.Rows, Fig15Row{
			Bits: bits, Speedup: float64(base) / float64(run.Cycles), NRMSE: nr, Cycles: run.Cycles,
		})
		if outDir != "" {
			px, err := c.Layout.OutputValues(m, b.Output)
			if err != nil {
				return Fig16Result{}, err
			}
			path, err := writePGM(outDir, fmt.Sprintf("fig16_%dbit", bits), px, p.ImgW, p.ImgH)
			if err != nil {
				return Fig16Result{}, err
			}
			res.ImagePaths = append(res.ImagePaths, path)
		}
	}
	return res, nil
}

// PrintFigure16 renders the study.
func PrintFigure16(w io.Writer, r Fig16Result) {
	fmt.Fprintf(w, "Figure 16: Conv2d earliest outputs with small subwords (images)\n")
	fmt.Fprintf(w, "%5s %10s %10s %14s\n", "Bits", "Speedup", "NRMSE %", "Cycles")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5d %9.2fx %10.3f %14d\n", row.Bits, row.Speedup, row.NRMSE, row.Cycles)
	}
	for _, p := range r.ImagePaths {
		fmt.Fprintf(w, "wrote %s\n", p)
	}
}

func writePGM(outDir, name string, px []float64, w, h int) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name+".pgm")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := writePGMTo(f, px, w, h); err != nil {
		return "", err
	}
	return path, nil
}

// writePGMTo delegates to the quality package's PGM encoder.
func writePGMTo(w io.Writer, px []float64, width, height int) error {
	return quality.WritePGM(w, px, width, height)
}
