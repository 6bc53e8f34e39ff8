// Package analysis is a self-contained static-analysis framework shaped
// after golang.org/x/tools/go/analysis, built only on the standard library
// (go/ast, go/parser, go/types) so the repo's invariants can be machine-
// checked without any external module. It exists because two contracts of
// the durability work — WAL appends inside the shard critical section and
// fsyncs outside it, commit errors gating acks — are invisible to the
// compiler, to -race and to every test that does not kill the log at the
// right instant, yet a single missed call is silent data loss. (The buffer
// ownership contracts of the pooling work are not checked here: breaking
// one is a data race or a blown allocation budget, which the test suite
// reports; DESIGN §9 has the audit.)
//
// The framework is deliberately marker-driven: analyzers know almost
// nothing about this repo's packages. Instead, functions and fields carry
// machine-readable doc-comment markers (see package markers documentation
// in markers.go) that register them with the relevant analyzer:
//
//	//memolint:shard-lock           on a sync.Mutex field: a shard lock
//	//memolint:requires-shard-lock  callee must run under a shard lock
//	//memolint:forbids-shard-lock   callee must NOT run under a shard lock
//	//memolint:must-check-error     the error result must be consumed
//
// Diagnostics are suppressed by an adjacent comment
//
//	//memolint:ignore <analyzer> <reason>
//
// where the reason is mandatory; a reasonless ignore is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one memolint check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so a future migration to the real
// framework is mechanical.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //memolint:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check over one package.
	Run func(*Pass) error
}

// Pass carries one package's load results to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Markers indexes every //memolint: marker in this package and in all
	// module packages it imports (transitively).
	Markers *Markers

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed is set by the driver when a matching //memolint:ignore
	// covers the diagnostic. The reason travels with it for reporting.
	Suppressed bool
	Reason     string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run loads nothing itself: it applies the given analyzers to one
// already-loaded package and returns the diagnostics, sorted by position,
// with suppressions from //memolint:ignore comments applied (matching
// diagnostics are marked Suppressed rather than dropped, so drivers can
// count and audit them).
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Markers:  pkg.Markers,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = append(diags, checkIgnoreComments(pkg, analyzers)...)
	applySuppressions(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
