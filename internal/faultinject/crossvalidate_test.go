package faultinject_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
	"whatsnext/internal/nn"
	"whatsnext/internal/wncheck"
	"whatsnext/internal/workloads"
)

// tinyParams shrinks each Table I kernel to a size where strided fault
// injection stays fast while still exercising every loop and store pattern
// the full-size kernel has.
func tinyParams(name string) workloads.Params {
	switch name {
	case "Conv2d":
		return workloads.Params{ImgW: 6, ImgH: 6, K: 3}
	case "MatMul":
		return workloads.Params{N: 6}
	case "MatAdd":
		return workloads.Params{N: 8}
	case "Home":
		return workloads.Params{Windows: 4, WindowSize: 8}
	case "Var":
		return workloads.Params{Windows: 4, WindowSize: 8}
	case "NetMotion":
		return workloads.Params{Steps: 48}
	}
	return workloads.Params{}
}

// TestKernelsCertifiedAndSurviveInjection is the kernel-level
// cross-validation: every Table I benchmark, compiled precise, is (a)
// certified crash-consistent by the static analysis — zero error-severity
// findings and an empty flagged-region set in the verification certificate —
// and (b) sound under certificate-driven injection: CrossValidate samples
// instruction boundaries across the run and every one of them, being in
// proven territory, must reproduce the golden memory bit-exactly under
// Clank, NVP, and the undo log.
//
// Precise variants are the right vehicle for the bit-exactness half: skim
// builds legitimately commit approximate results when a failure takes the
// skim-resume path, so their final memory is allowed to differ from an
// uninterrupted run by design.
func TestKernelsCertifiedAndSurviveInjection(t *testing.T) {
	for _, b := range workloads.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			p := tinyParams(b.Name)
			k := b.Build(p, 8, false)
			c, err := compiler.Compile(k, compiler.Options{Mode: compiler.ModePrecise})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}

			res, cert, err := wncheck.Verify(c.Program, wncheck.Options{Crash: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Diags {
				if d.Severity >= wncheck.Error {
					t.Fatalf("static certification failed: %s", d)
				}
			}
			if len(cert.Flagged) > 0 {
				t.Fatalf("certificate is not clean: flagged regions %+v", cert.Flagged)
			}

			target := faultinject.FromCompiled(b.Name, c, b.Inputs(p, 1))
			for _, rt := range []string{"clank", "nvp", "undolog"} {
				rep, err := faultinject.CrossValidate(target,
					faultinject.CrossConfig{
						Config:    faultinject.Config{Policy: policyFactory(rt)},
						MaxPoints: 24,
					}, cert)
				if err != nil {
					t.Fatalf("%s: %v", rt, err)
				}
				if !rep.Validated() {
					t.Errorf("%s: %s; first violation: %s", rt, rep, rep.Violations[0])
					continue
				}
				t.Logf("%s: %d certified boundaries clean over %d golden cycles",
					rt, rep.CertifiedPoints, rep.GoldenCycles)
			}
		})
	}
}

// crossCase is one target of the CrossValidate equivalence matrix, with
// the certificate it is validated against, and the kill caps and runtimes
// it runs under.
type crossCase struct {
	name      string
	target    faultinject.Target
	cert      *wncheck.Certificate
	inputs    []uint32
	maxPoints []int
	runtimes  []string
}

var allRuntimes = []string{"clank", "nvp", "undolog", "naive", "restart"}

// smallMem is a device geometry just large enough for the hand-written
// hazard programs: a naive campaign's cost per kill is dominated by
// allocating, copying and comparing the memory regions, so it keeps the
// exhaustive campaigns over that corpus affordable.
var smallMem = mem.Config{CodeBytes: 1 << 10, DataBytes: 1 << 10, SRAMBytes: 1 << 10}

// crossMatrix builds the equivalence matrix's targets: every seeded hazard
// program that halts (verified as the formal-rule tests verify them),
// exhaustive and sampled; the Table I precise and WN 4-bit builds at
// tinyParams and one progress-embedded NN build, sampled (an exhaustive
// naive campaign over their thousands of boundaries is quadratic).
func crossMatrix(t *testing.T) []crossCase {
	t.Helper()
	var cases []crossCase
	files, err := filepath.Glob(filepath.Join("testdata", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		file := filepath.Base(path)
		if file == "livelock.s" {
			continue // never halts: no golden run to validate against
		}
		p := loadProgram(t, file)
		opts := wncheck.Options{Crash: true}
		var inputs []uint32
		if file == "repeated_input.s" {
			opts.Input = []wncheck.AddrRange{{Start: mem.DataBase, End: mem.DataBase + 4}}
			inputs = []uint32{mem.DataBase}
		}
		_, cert, err := wncheck.Verify(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		maxPoints, runtimes := []int{0, 24}, allRuntimes
		if file == "sram_cross.s" {
			// Nearly all of its ~8000 boundaries lie in the flagged window,
			// which a cap never samples, and nearly every kill diverges, so
			// each campaign runs ~8000 forks to halt and the oracle ~8000
			// runs from reset. One exhaustive campaign per restore
			// mechanism its hazard exercises keeps that affordable: NVP
			// resumes in place past the wiped SRAM word, Clank restores a
			// watchdog checkpoint taken inside the spin.
			maxPoints, runtimes = []int{0}, []string{"clank", "nvp"}
		}
		cases = append(cases, crossCase{file, faultinject.FromProgram(file, p), cert, inputs, maxPoints, runtimes})
	}
	compiled := func(name string, b *workloads.Benchmark, p workloads.Params, bits int, provisioned bool, opts compiler.Options) {
		c, err := compiler.Compile(b.Build(p, bits, provisioned), opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		_, cert, err := wncheck.Verify(c.Program, wncheck.Options{Crash: true})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, crossCase{name, faultinject.FromCompiled(name, c, b.Inputs(p, 1)), cert, nil, []int{24}, allRuntimes})
	}
	for _, b := range workloads.All() {
		p := tinyParams(b.Name)
		compiled(b.Name+"/precise", b, p, 8, false, compiler.Options{Mode: compiler.ModePrecise})
		compiled(b.Name+"/wn4", b, p, 4, true, compiler.Options{Mode: b.Mode})
	}
	compiled("NNConv/precise+embed", nn.NNConv(), nnConvTiny, 8, true,
		compiler.Options{Mode: compiler.ModePrecise, ProgressEmbed: true})
	return cases
}

// hideFork wraps a policy so that only the Policy methods are visible:
// the wrapped runtime cannot fork, forcing the per-kill fallback.
type hideFork struct{ intermittent.Policy }

// TestCrossValidateMatchesNaive is the trunk/fork CrossValidate's
// contract: across the hazard corpus, the Table I builds and a
// progress-embedded NN build, under every runtime, its CrossReport
// serializes byte-identically to the one resolving every kill with its
// own run from reset. A runtime hidden behind a non-forkable wrapper must
// reach the same bytes through the fallback.
func TestCrossValidateMatchesNaive(t *testing.T) {
	for _, tc := range crossMatrix(t) {
		for _, rt := range tc.runtimes {
			tc, rt := tc, rt
			t.Run(tc.name+"/"+rt, func(t *testing.T) {
				t.Parallel()
				for _, maxPoints := range tc.maxPoints {
					cfg := faultinject.CrossConfig{
						Config:     faultinject.Config{Policy: policyFactory(rt)},
						InputWords: tc.inputs,
						MaxPoints:  maxPoints,
					}
					if tc.target.Install == nil {
						cfg.Mem = smallMem
					}
					want := crossJSON(t, faultinject.CrossValidateNaive, tc, cfg)
					if got := crossJSON(t, faultinject.CrossValidate, tc, cfg); !bytes.Equal(got, want) {
						t.Errorf("max%d: trunk/fork report differs\n naive:      %s\n trunk/fork: %s", maxPoints, want, got)
					}
					if maxPoints == 0 {
						continue
					}
					cfg.Policy = func() intermittent.Policy { return hideFork{policyFactory(rt)()} }
					if got := crossJSON(t, faultinject.CrossValidate, tc, cfg); !bytes.Equal(got, want) {
						t.Errorf("max%d: non-forkable fallback report differs\n naive:    %s\n fallback: %s", maxPoints, want, got)
					}
				}
			})
		}
	}
}

func crossJSON(t *testing.T, engine func(faultinject.Target, faultinject.CrossConfig, *wncheck.Certificate) (*faultinject.CrossReport, error),
	tc crossCase, cfg faultinject.CrossConfig) []byte {
	t.Helper()
	rep, err := engine(tc.target, cfg, tc.cert)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// BenchmarkCrossValidate measures one certified campaign at study size:
// the Table I MatMul precise build under Clank, 32 kill points.
func BenchmarkCrossValidate(b *testing.B) {
	bench, err := workloads.ByName("MatMul")
	if err != nil {
		b.Fatal(err)
	}
	p := bench.ScaledParams()
	c, err := compiler.Compile(bench.Build(p, 8, false), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		b.Fatal(err)
	}
	_, cert, err := wncheck.Verify(c.Program, wncheck.Options{Crash: true})
	if err != nil {
		b.Fatal(err)
	}
	target := faultinject.FromCompiled(bench.Name, c, bench.Inputs(p, 1))
	cfg := faultinject.CrossConfig{Config: faultinject.Config{Policy: policyFactory("clank")}, MaxPoints: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := faultinject.CrossValidate(target, cfg, cert)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Validated() {
			b.Fatalf("campaign not validated: %s", rep)
		}
		if i == 0 {
			b.ReportMetric(float64(rep.Points), "kill_points")
		}
	}
}
