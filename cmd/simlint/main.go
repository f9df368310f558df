// Command simlint runs the repository's determinism/invariant
// static-analysis suite (internal/lint) over the module tree and exits
// nonzero if any active invariant violation remains.
//
// Usage:
//
//	simlint [-C dir] [-run name[,name...]] [-list] [-stats]
//	        [-format text|json|sarif]
//
// With no flags it locates the enclosing module root (walking up from
// the working directory to go.mod) and runs every analyzer under the
// repository policy. Text diagnostics print as file:line:col: analyzer:
// message, sorted by position, paths relative to the module root.
//
// -format json and -format sarif emit machine-readable findings on
// stdout, including findings suppressed by //simlint:allow annotations
// (with their allow-state); the text format and the exit code consider
// only active findings: every one of them gates. -stats prints per-rule
// finding counts on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	chdir := flag.String("C", "", "module root to lint (default: found via go.mod from cwd)")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", "text", "output format: text, json, or sarif")
	stats := flag.Bool("stats", false, "print per-rule finding counts on stderr")
	flag.Parse()

	if *list {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fatal(fmt.Errorf("simlint: unknown format %q (want text, json, or sarif)", *format))
	}

	root := *chdir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	diags, err := lintRoot(root, *run)
	if err != nil {
		fatal(err)
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	gating := lint.Active(diags)
	switch *format {
	case "text":
		for _, d := range gating {
			fmt.Println(d)
		}
	case "json":
		out, err := marshalJSON(diags)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
	case "sarif":
		out, err := lint.SARIF(diags)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		fmt.Println()
	}

	if *stats {
		printStats(diags)
	}
	if len(gating) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(gating))
		os.Exit(1)
	}
}

// marshalJSON renders the plain-JSON finding list: every finding with
// its position and allow-state.
func marshalJSON(diags []lint.Diagnostic) ([]byte, error) {
	type finding struct {
		Rule       string `json:"rule"`
		File       string `json:"file"`
		Line       int    `json:"line"`
		Column     int    `json:"column"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed,omitempty"`
	}
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			Rule:       d.Analyzer,
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Column:     d.Pos.Column,
			Message:    d.Message,
			Suppressed: d.Suppressed,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// printStats prints per-rule counts on stderr: active findings first,
// then the suppressed tally that explains a quiet run.
func printStats(diags []lint.Diagnostic) {
	type tally struct{ active, suppressed int }
	byRule := map[string]*tally{}
	for _, d := range diags {
		tl := byRule[d.Analyzer]
		if tl == nil {
			tl = &tally{}
			byRule[d.Analyzer] = tl
		}
		if d.Suppressed {
			tl.suppressed++
		} else {
			tl.active++
		}
	}
	rules := make([]string, 0, len(byRule))
	for r := range byRule {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		tl := byRule[r]
		line := fmt.Sprintf("simlint: %-14s %3d active", r, tl.active)
		if tl.suppressed > 0 {
			line += fmt.Sprintf(", %d allowed", tl.suppressed)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if len(rules) == 0 {
		fmt.Fprintln(os.Stderr, "simlint: no findings")
	}
}

// lintRoot runs the full suite, optionally restricted to the named
// analyzers (the policy still decides which packages each one sees). A
// restricted run cannot judge allow annotations, so stale-allow
// detection is disabled for it.
func lintRoot(root, run string) ([]lint.Diagnostic, error) {
	if run == "" {
		return lint.LintModule(root)
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := lint.AnalyzerByName(name); !ok {
			return nil, fmt.Errorf("simlint: unknown analyzer %q (use -list)", name)
		}
		selected[name] = true
	}
	cfg := lint.DefaultConfig()
	cfg.ReportStaleAllows = false
	loader := lint.NewLoader(cfg.ModulePath, root)
	pkgs, err := loader.LoadTree()
	if err != nil {
		return nil, err
	}
	return lint.Run(pkgs, nil, cfg, func(pkgPath string) []*lint.Analyzer {
		var active []*lint.Analyzer
		for _, a := range lint.AnalyzersFor(cfg, pkgPath) {
			if selected[a.Name] {
				active = append(active, a)
			}
		}
		return active
	}), nil
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("simlint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
