package lockcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// checkNonblocking reports every call in a //memolint:nonblocking function
// that waits (see reacher.waits). Calls through interfaces and func values,
// calls into other packages' unmarked functions, go statements and function
// literals are not followed, and a callee marked nonblocking is checked on
// its own.
func checkNonblocking(pass *analysis.Pass, r *reacher) {
	for _, fd := range r.order {
		obj := pass.Info.Defs[fd.Name]
		if !pass.Markers.Has(obj, analysis.MarkNonblocking) {
			continue
		}
		name := analysis.FuncName(obj)
		eachCall(fd.Body, func(c *ast.CallExpr) {
			callee := analysis.Callee(pass.Info, c)
			if chain := r.waits(callee); chain != nil {
				pass.Reportf(c.Pos(), "%s is nonblocking but calls %s, which %s", name, analysis.FuncName(callee), blocksIn(chain))
			}
		})
	}
}

// reacher finds, per function of the package, a call chain to a blocking
// function. One serves both of lockcheck's rules in a pass.
type reacher struct {
	pass  *analysis.Pass
	decls map[types.Object]*ast.FuncDecl
	// order lists the package's function declarations in file order, so
	// reports come out in a deterministic order.
	order []*ast.FuncDecl
	// memo holds each visited function's chain, nil for none; a function
	// still being visited reads as none, which cuts recursion.
	memo map[types.Object][]string
}

func newReacher(pass *analysis.Pass) *reacher {
	r := &reacher{pass: pass, decls: make(map[types.Object]*ast.FuncDecl), memo: make(map[types.Object][]string)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				r.decls[pass.Info.Defs[fd.Name]] = fd
				r.order = append(r.order, fd)
			}
		}
	}
	return r
}

// waits returns the chain by which a call to callee waits, starting at
// callee: callee alone when it is marked //memolint:blocks, else the chain
// by which it reaches one through functions of this package. It is nil for
// a callee marked //memolint:nonblocking, which is checked on its own.
func (r *reacher) waits(callee types.Object) []string {
	switch {
	case callee == nil || r.pass.Markers.Has(callee, analysis.MarkNonblocking):
		return nil
	case r.pass.Markers.Has(callee, analysis.MarkBlocks):
		return []string{analysis.FuncName(callee)}
	}
	return r.reach(callee)
}

// blocksIn words a waits chain for a report.
func blocksIn(chain []string) string {
	if len(chain) == 1 {
		return "blocks"
	}
	return "blocks in " + strings.Join(chain, " → ")
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
		if chain != nil {
			return
		}
		if rest := r.waits(analysis.Callee(r.pass.Info, c)); rest != nil {
			chain = append([]string{analysis.FuncName(fn)}, rest...)
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
