package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Marker names. A marker is a doc- or line-comment of the form
// //memolint:<name> on a func/method declaration, an interface method, or a
// struct field. See the package documentation for what each one registers.
const (
	MarkShardLock    = "shard-lock"
	MarkRequiresLock = "requires-shard-lock"
	MarkMustCheck    = "must-check-error"
	MarkBlocks       = "blocks"
	MarkNonblocking  = "nonblocking"
)

// Markers indexes every //memolint: marker seen across all loaded packages,
// keyed by the declared object, so an analyzer pass over package A can ask
// about markers declared in its dependency B (both load from source).
type Markers struct {
	m map[types.Object]map[string]bool
}

func newMarkers() *Markers {
	return &Markers{m: make(map[types.Object]map[string]bool)}
}

// Has reports whether obj carries the named marker.
func (mk *Markers) Has(obj types.Object, name string) bool {
	if obj == nil {
		return false
	}
	return mk.m[obj][name]
}

func (mk *Markers) add(obj types.Object, name string) {
	if obj == nil {
		return
	}
	set := mk.m[obj]
	if set == nil {
		set = make(map[string]bool)
		mk.m[obj] = set
	}
	set[name] = true
}

// markerNames extracts the memolint marker names from a comment group
// (ignore directives are handled separately and skipped here).
func markerNames(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text, ok := strings.CutPrefix(c.Text, "//memolint:")
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(text, " ")
			name = strings.TrimSpace(name)
			if name == "" || name == "ignore" {
				continue
			}
			out = append(out, name)
		}
	}
	return out
}

// collect walks pkg's files and records every marker against the object it
// annotates: func and method declarations, interface methods, and struct
// fields (the shard-lock marker sits on a sync.Mutex field).
func (mk *Markers) collect(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				for _, name := range markerNames(d.Doc) {
					mk.add(pkg.Info.Defs[d.Name], name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					mk.collectType(pkg, ts.Type)
				}
			}
		}
	}
}

func (mk *Markers) collectType(pkg *Package, typ ast.Expr) {
	switch t := typ.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			names := markerNames(field.Doc, field.Comment)
			for _, id := range field.Names {
				for _, name := range names {
					mk.add(pkg.Info.Defs[id], name)
				}
			}
			mk.collectType(pkg, field.Type) // nested struct literals
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			names := markerNames(m.Doc, m.Comment)
			for _, id := range m.Names {
				for _, name := range names {
					mk.add(pkg.Info.Defs[id], name)
				}
			}
		}
	}
}

// Callee resolves the object a call expression invokes: a package function,
// a method (through embedding too), or nil for calls through function
// values and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[fn]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	case *ast.SelectorExpr:
		if obj := info.Uses[fn.Sel]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return obj
			}
		}
	}
	return nil
}
