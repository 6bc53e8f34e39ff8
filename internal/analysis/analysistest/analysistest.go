// Package analysistest runs a memolint analyzer over a testdata package and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//	s.Put("k", nil) // want `discarded`
//
// Each `// want` comment carries one or more quoted or backquoted regular
// expressions; every unsuppressed diagnostic on that line must match one,
// and every expectation must be matched by a diagnostic. Suppressed
// diagnostics (covered by //memolint:ignore) are NOT matched against wants —
// a test asserts suppression by the absence of a want plus the returned
// diagnostics.
//
// Testdata lives under <analyzer>/testdata/src in GOPATH layout: package
// path "a" loads from testdata/src/a, and stub dependency packages (store,
// durable) sit alongside so markers resolve exactly as they do in the real
// tree.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads pkgPath from dir/src, applies the analyzer, checks // want
// expectations, and returns all diagnostics (including suppressed ones) for
// further assertions.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	loader := analysis.NewLoader(filepath.Join(dir, "src"), "")
	pkg, err := loader.Load(pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, pkg)
	type lineKey struct {
		file string
		line int
	}
	byLine := make(map[lineKey][]*expectation)
	for i := range wants {
		w := &wants[i]
		byLine[lineKey{w.file, w.line}] = append(byLine[lineKey{w.file, w.line}], w)
	}

	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		matched := false
		for _, w := range byLine[lineKey{d.Pos.Filename, d.Pos.Line}] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", posName(pkg, d), d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
	return diags
}

func posName(pkg *analysis.Package, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column)
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses `// want "re" \`re\“ comments from the package files.
func collectWants(t *testing.T, pkg *analysis.Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range pkg.Files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos.String(), text) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					out = append(out, expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// splitPatterns extracts the quoted/backquoted patterns from a want comment.
func splitPatterns(t *testing.T, pos, text string) []string {
	t.Helper()
	var pats []string
	rest := strings.TrimSpace(text)
	for rest != "" {
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated ` in want comment", pos)
			}
			pats = append(pats, rest[1:1+end])
			rest = strings.TrimSpace(rest[end+2:])
		case '"':
			// find the closing quote, honoring escapes
			i := 1
			for i < len(rest) && (rest[i] != '"' || rest[i-1] == '\\') {
				i++
			}
			if i >= len(rest) {
				t.Fatalf("%s: unterminated \" in want comment", pos)
			}
			s, err := strconv.Unquote(rest[:i+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern %s: %v", pos, rest[:i+1], err)
			}
			pats = append(pats, s)
			rest = strings.TrimSpace(rest[i+1:])
		default:
			t.Fatalf("%s: want patterns must be quoted or backquoted, got %q", pos, rest)
		}
	}
	return pats
}
