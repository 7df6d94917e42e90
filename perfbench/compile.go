package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/experiments"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// verified is one variant compiled and certified during set-up.
type verified struct {
	v    experiments.Variant
	c    *compiler.Compiled
	cert []byte // wncheck.Verify{Crash, Progress} certificate, JSON
}

// compileAndVerify lowers a variant without the compiler's built-in check
// and then verifies it with the options the compiler's check uses, timing
// each layer separately. Error-severity findings fail the set-up.
func compileAndVerify(v experiments.Variant, rec *recorder, parent int64) (verified, error) {
	sp := rec.begin("compiler.compile", parent, 0)
	c, err := compiler.Compile(v.Bench.Build(v.Params, v.Bits, v.Provisioned), compiler.Options{
		Mode:          v.Mode,
		VectorLoads:   v.VectorLoads,
		ProgressEmbed: v.ProgressEmbed,
		MaxPasses:     v.MaxPasses,
		DisableChecks: true,
	})
	sp.end(0)
	if err != nil {
		return verified{}, fmt.Errorf("%s: %w", v, err)
	}
	sp = rec.begin("wncheck.verify", parent, 0)
	res, cert, err := wncheck.Verify(c.Program, wncheck.Options{Crash: true, Progress: true})
	if err != nil {
		sp.end(0)
		return verified{}, fmt.Errorf("%s: verify: %w", v, err)
	}
	sp.end(uint64(res.NumInstructions))
	if errs := res.Errors(); len(errs) > 0 {
		return verified{}, fmt.Errorf("%s: %d verification errors, first: %s", v, len(errs), errs[0])
	}
	b, err := json.Marshal(cert)
	if err != nil {
		return verified{}, err
	}
	return verified{v: v, c: c, cert: b}, nil
}

// warm compiles the variant through Variant.Compile, filling the cache the
// production path reads, and checks that it produced the image and
// certificate set-up verified.
func (s verified) warm() (*compiler.Compiled, error) {
	c, err := s.v.Compile()
	if err != nil {
		return nil, err
	}
	cert, err := json.Marshal(c.Cert)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(c.Program.Image, s.c.Program.Image) || !bytes.Equal(cert, s.cert) {
		return nil, fmt.Errorf("%s: Variant.Compile disagrees with the set-up compile and verify", s.v)
	}
	return c, nil
}

// bareRun executes a build to HALT on a bare CPU under continuous power
// and returns the instructions retired. The spans time cpu.CPU.Run alone.
func bareRun(c *compiler.Compiled, m *mem.Memory, rec *recorder, parent, op int64) (uint64, error) {
	cp := cpu.New(m)
	cp.SetAmenablePCs(c.Program.Amenable)
	sp := rec.begin("cpu.run", parent, op)
	var instrs uint64
	for !cp.Halted {
		r, err := cp.Run(1<<62, nil)
		instrs += r.Instructions
		if err != nil {
			sp.end(instrs)
			return 0, fmt.Errorf("bare run: %w", err)
		}
		if r.Instructions == 0 && !cp.Halted {
			sp.end(instrs)
			return 0, fmt.Errorf("bare run made no progress")
		}
	}
	sp.end(instrs)
	return instrs, nil
}

// installed returns a fresh memory with the build's image and inputs.
func installed(c *compiler.Compiled, in map[string][]int64) (*mem.Memory, error) {
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(c.Program.Image); err != nil {
		return nil, err
	}
	return m, c.InstallData(m, in)
}
