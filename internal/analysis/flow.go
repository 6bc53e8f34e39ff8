package analysis

import (
	"go/ast"
	"go/types"
)

// NodeIndex maps every statement and expression back to the CFG node whose
// Exprs contain it, so an analyzer can anchor a traversal at the node
// holding a particular call.
func NodeIndex(g *Graph) map[ast.Node]*Node {
	idx := make(map[ast.Node]*Node)
	for _, n := range g.Nodes {
		for _, e := range n.Exprs() {
			ast.Inspect(e, func(x ast.Node) bool {
				if x != nil {
					idx[x] = n
				}
				return true
			})
		}
	}
	return idx
}

// AssignInfo is one plain-identifier (re)binding inside a statement.
// Non-identifier LHS (field stores, index stores) are not included.
type AssignInfo struct {
	LHSVar *types.Var
	LHS    *ast.Ident
	RHS    ast.Expr // nil when the value comes from a tuple or is absent
}

// NodeAssigns returns the variables a node's statement (re)binds.
func NodeAssigns(info *types.Info, n *Node) []AssignInfo {
	var out []AssignInfo
	for _, e := range n.Exprs() {
		collectAssigns(info, e, &out)
	}
	return out
}

func collectAssigns(info *types.Info, root ast.Node, out *[]AssignInfo) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false // separate scope; not this node's bindings
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				v := ObjVar(info, id)
				if v == nil {
					continue
				}
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				*out = append(*out, AssignInfo{LHSVar: v, LHS: id, RHS: rhs})
			}
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, id := range vs.Names {
						v := ObjVar(info, id)
						if v == nil {
							continue
						}
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						}
						*out = append(*out, AssignInfo{LHSVar: v, LHS: id, RHS: rhs})
					}
				}
			}
		}
		return true
	})
}

// ObjVar resolves an identifier to the variable it defines or uses.
func ObjVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// ReadsVar reports whether n's statement reads v — any use of v's ident
// that is not a plain assignment target.
func ReadsVar(info *types.Info, n *Node, v *types.Var) bool {
	if v == nil {
		return false
	}
	assignLHS := make(map[*ast.Ident]bool)
	for _, a := range NodeAssigns(info, n) {
		assignLHS[a.LHS] = true
	}
	read := false
	for _, e := range n.Exprs() {
		ast.Inspect(e, func(x ast.Node) bool {
			if read {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			if assignLHS[id] {
				return true
			}
			if info.Uses[id] == v {
				read = true
				return false
			}
			return true
		})
		if read {
			return true
		}
	}
	return false
}

// FuncName renders a called object for diagnostics (pkg.Func or Type.Method).
func FuncName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return fn.Name()
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch tt := t.(type) {
		case *types.Named:
			return tt.Obj().Name() + "." + fn.Name()
		case *types.Interface:
			return fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
