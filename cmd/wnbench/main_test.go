package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"whatsnext/internal/experiments"
)

// resolverCLI maps each spec-resolver experiment to the CLI entries that
// drive it (the speedup resolver backs both figure studies). The no-drift
// test below keeps this map, the resolver registry, and the CLI registry
// in lockstep.
var resolverCLI = map[string][]string{
	"table1":  {"table1"},
	"speedup": {"fig10", "fig11"},
	"nn":      {"nn"},
}

// TestRegistryMatchesResolvers is the no-drift check between the CLI and
// the spec-resolver registry: every experiment a wnserved instance can
// resolve must be driven by a runnable CLI entry, so remote-capable
// studies never silently drop out of `-exp all`, and the map above never
// goes stale in either direction.
func TestRegistryMatchesResolvers(t *testing.T) {
	names := map[string]bool{}
	for _, e := range registry {
		if names[e.name] {
			t.Errorf("duplicate registry entry %q", e.name)
		}
		names[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Errorf("registry entry %q lacks a description or runner", e.name)
		}
	}
	resolvable := experiments.ResolvableExperiments()
	if len(resolvable) != len(resolverCLI) {
		t.Errorf("resolver registry has %d experiments, CLI map covers %d", len(resolvable), len(resolverCLI))
	}
	for _, n := range resolvable {
		clis, ok := resolverCLI[n]
		if !ok {
			t.Errorf("resolver experiment %q has no CLI mapping", n)
			continue
		}
		for _, cli := range clis {
			if !names[cli] {
				t.Errorf("resolver experiment %q maps to unknown CLI entry %q", n, cli)
			}
			if err := validateExp(cli); err != nil {
				t.Errorf("validateExp(%q): %v", cli, err)
			}
		}
	}
}

// TestListExperiments: the -exp list output enumerates exactly the
// registry, one line per entry.
func TestListExperiments(t *testing.T) {
	var sb strings.Builder
	listExperiments(&sb)
	out := sb.String()
	for _, e := range registry {
		if !strings.Contains(out, e.name) || !strings.Contains(out, e.desc) {
			t.Errorf("listing lacks %q", e.name)
		}
	}
	if got := strings.Count(out, "\n"); got != len(registry)+1 {
		t.Errorf("listing has %d lines, want %d", got, len(registry)+1)
	}
}

// TestValidateExpRejectsUnknown: unknown names fail with the valid list.
func TestValidateExpRejectsUnknown(t *testing.T) {
	err := validateExp("nope")
	if err == nil || !strings.Contains(err.Error(), "nn") {
		t.Errorf("err = %v, want mention of valid names", err)
	}
	if err := validateExp("all"); err != nil {
		t.Errorf("validateExp(all): %v", err)
	}
}

// TestExpAllGolden pins the default evaluation: `wnbench -exp all` must
// print exactly testdata/exp_all.golden, with the output directory
// written as <out>. Any change to a reported number, row order or
// message shows up here; a deliberate one is re-pinned by regenerating
// the golden with
//
//	d=$(mktemp -d); go run ./cmd/wnbench -out "$d" | sed "s#$d#<out>#g" > cmd/wnbench/testdata/exp_all.golden
//
// and publishing the before/after numbers with the change.
func TestExpAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole default evaluation")
	}
	want, err := os.ReadFile("testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("wnbench -exp all exited %d: %s", code, stderr.String())
	}
	got := strings.ReplaceAll(stdout.String(), dir, "<out>")
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("wnbench -exp all output differs from testdata/exp_all.golden at line %d:\n got: %q\nwant: %q\n"+
				"if the change is intended, regenerate the golden as the comment on TestExpAllGolden says", i+1, g, w)
		}
	}
}
