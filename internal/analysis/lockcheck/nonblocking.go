package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// checkNonblocking reports every call in a //memolint:nonblocking function
// that reaches a //memolint:blocks one: the callee itself, or a function of
// this package that reaches one through functions of this package. Calls
// through interfaces and func values, calls into other packages' unmarked
// functions, go statements and function literals are not followed, and a
// callee marked nonblocking is checked on its own.
func checkNonblocking(pass *analysis.Pass) {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[pass.Info.Defs[fd.Name]] = fd
			}
		}
	}
	r := &reacher{pass: pass, decls: decls, memo: make(map[types.Object][]string)}
	for obj, fd := range decls {
		if !pass.Markers.Has(obj, analysis.MarkNonblocking) {
			continue
		}
		name := analysis.FuncName(obj)
		eachCall(fd.Body, func(c *ast.CallExpr) {
			callee := analysis.Callee(pass.Info, c)
			if callee == nil {
				return
			}
			if pass.Markers.Has(callee, analysis.MarkBlocks) {
				pass.Reportf(c.Pos(), "%s is nonblocking but calls %s, which blocks", name, analysis.FuncName(callee))
				return
			}
			if pass.Markers.Has(callee, analysis.MarkNonblocking) {
				return
			}
			if chain := r.reach(callee); chain != nil {
				pass.Reportf(c.Pos(), "%s is nonblocking but calls %s, which blocks in %s", name, analysis.FuncName(callee), strings.Join(chain, " → "))
			}
		})
	}
}

// reacher finds, per function of the package, a call chain to a blocking
// function.
type reacher struct {
	pass  *analysis.Pass
	decls map[types.Object]*ast.FuncDecl
	// memo holds each visited function's chain, nil for none; a function
	// still being visited reads as none, which cuts recursion.
	memo map[types.Object][]string
}

// reach returns the chain of calls by which fn — a function of this
// package, unmarked — reaches a blocking one, ending at it, or nil.
func (r *reacher) reach(fn types.Object) []string {
	if chain, seen := r.memo[fn]; seen {
		return chain
	}
	r.memo[fn] = nil
	fd, ok := r.decls[fn]
	if !ok {
		return nil
	}
	var chain []string
	eachCall(fd.Body, func(c *ast.CallExpr) {
		callee := analysis.Callee(r.pass.Info, c)
		switch {
		case chain != nil || callee == nil || r.pass.Markers.Has(callee, analysis.MarkNonblocking):
		case r.pass.Markers.Has(callee, analysis.MarkBlocks):
			chain = []string{analysis.FuncName(fn), analysis.FuncName(callee)}
		default:
			if rest := r.reach(callee); rest != nil {
				chain = append([]string{analysis.FuncName(fn)}, rest...)
			}
		}
	})
	r.memo[fn] = chain
	return chain
}

// eachCall visits the calls a function body makes on its own goroutine:
// deferred calls included, go statements and function literals not.
func eachCall(body *ast.BlockStmt, f func(*ast.CallExpr)) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			f(x)
		}
		return true
	})
}
