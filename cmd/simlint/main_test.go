package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLintRootRejectsUnknownAnalyzer(t *testing.T) {
	_, err := lintRoot(filepath.Join("..", ".."), "wallclock,no-such-rule")
	if err == nil || !strings.Contains(err.Error(), `"no-such-rule"`) {
		t.Fatalf("lintRoot with an unknown -run name: err = %v, want one naming it", err)
	}
}

// TestLintRootRestrictedRun pins -run over the real tree: only the named
// rule reports (no staleallow either), and its findings in the tree are all
// annotated.
func TestLintRootRestrictedRun(t *testing.T) {
	diags, err := lintRoot(filepath.Join("..", ".."), "wallclock")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("no wallclock findings: the tree's annotated wall-clock reads were not seen")
	}
	for _, d := range diags {
		if d.Analyzer != "wallclock" {
			t.Errorf("finding from a rule that was not selected: %s", d)
		}
		if !d.Suppressed {
			t.Errorf("active finding: %s", d)
		}
	}
}

// TestLintRootRestrictedRunSkipsStaleAllow pins why a restricted run turns
// stale-allow judging off: an "all" annotation covering a rule that did
// not run would otherwise be reported as suppressing nothing.
func TestLintRootRestrictedRunSkipsStaleAllow(t *testing.T) {
	root := t.TempDir()
	src := "package x\n\nfunc F() {\n\tgo F() //simlint:allow all \u2014 test fixture\n}\n"
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module repro\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "internal", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "internal", "x", "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := lintRoot(root, "wallclock")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("restricted run reported %v, want nothing", diags)
	}
}
