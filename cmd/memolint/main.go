// Command memolint is the multichecker for this repository's custom
// analyzers. It loads every package in the module from source (no network,
// no external tooling — go/types and the source importer only) and applies:
//
//	lockcheck  WAL appends under the shard lock, fsyncs outside it,
//	           never two shard locks at once
//	errgate    errors that gate acknowledgements are checked before acking
//
// These are the two analyzers that are the only gate to catch something: a
// mutation audit (DESIGN.md §9) seeded real faults into product code, and
// every lock-discipline and dropped-error fault was caught by nothing else,
// while every buffer-ownership fault a static check flagged was also failed
// by `go test -race` or an allocation budget.
//
// Exit status is 1 if any unsuppressed diagnostic is found. Suppressions
// (//memolint:ignore <analyzer> <reason>) require a written reason; -v lists
// them so reviews can audit every deviation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/errgate"
	"repro/internal/analysis/lockcheck"
)

func main() {
	var (
		root    = flag.String("root", "", "module root to analyze (default: walk up from cwd to go.mod)")
		tests   = flag.Bool("tests", false, "also analyze _test.go files")
		verbose = flag.Bool("v", false, "list suppressed diagnostics with their reasons")
	)
	flag.Parse()

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "memolint:", err)
			os.Exit(2)
		}
	}
	module, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "memolint:", err)
		os.Exit(2)
	}

	analyzers := []*analysis.Analyzer{lockcheck.New(), errgate.New()}

	loader := analysis.NewLoader(dir, module)
	loader.IncludeTests = *tests
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memolint:", err)
		os.Exit(2)
	}

	failed := false
	suppressed := 0
	for _, pkg := range pkgs {
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memolint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			if d.Suppressed {
				suppressed++
				if *verbose {
					fmt.Fprintf(os.Stdout, "%s: %s: suppressed (%s): %s\n", d.Pos, d.Analyzer, d.Reason, d.Message)
				}
				continue
			}
			failed = true
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
	}
	if *verbose || failed {
		fmt.Fprintf(os.Stderr, "memolint: %d package(s), %d suppression(s)\n", len(pkgs), suppressed)
	}
	if failed {
		os.Exit(1)
	}
}

// findModuleRoot walks up from the working directory to the enclosing go.mod.
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
			return "", fmt.Errorf("no go.mod found above %s (use -root)", dir)
		}
		dir = parent
	}
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
