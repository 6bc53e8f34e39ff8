// Package lockcheck enforces the shard-lock discipline of the striped
// folder store and its WAL:
//
//   - functions marked //memolint:requires-shard-lock (durable.Log.Append,
//     the in-lock logging helpers) must be called while a shard lock — a
//     sync.Mutex field marked //memolint:shard-lock — is held on every
//     path; per-folder WAL order equals application order only because the
//     append happens inside the shard critical section.
//   - a function that waits — one marked //memolint:blocks (durable.Log.Commit
//     and Barrier block on fsync), or one that reaches such a function
//     through functions of its own package — must never be called while a
//     shard lock may be held: an fsync under the shard lock would stall
//     every operation on the stripe for milliseconds.
//   - no two shard locks may be held at once: multi-shard operations
//     (AltTake, AltSkip, Watch) visit shards one at a time in ascending
//     order, and the deadlock-freedom of that scan rests on never nesting
//     stripe locks.
//   - functions marked //memolint:nonblocking (a conn's router, the folder
//     store's wake and re-scan path, rpc.Pending's completions) must not
//     reach a function marked //memolint:blocks (Log.Commit, Log.Barrier,
//     rpc.Conn.Call, the in-process wait on a parked read, the wait on
//     another attempt's take token), directly or through functions of
//     their own package: they run on a read loop or on another request's
//     goroutine, which a wait would stall.
//
// A function whose own contract is "caller holds the shard lock" should be
// marked //memolint:requires-shard-lock: its body is then analyzed with a
// virtual lock held, and every call site is checked instead.
package lockcheck

import (
	"go/ast"

	"repro/internal/analysis"
)

// New returns the lockcheck analyzer.
func New() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockcheck",
		Doc:  "WAL appends under the shard lock, commits outside it, never two shard locks at once, nothing nonblocking reaches a wait",
	}
	a.Run = run
	return a
}

// callerLock is the virtual lock a requires-shard-lock function holds on
// entry.
const callerLock = "<caller>"

func run(pass *analysis.Pass) error {
	r := newReacher(pass)
	for _, fd := range r.order {
		checkFunc(pass, r, fd)
	}
	checkNonblocking(pass, r)
	return nil
}

// lockOp is one Lock/Unlock of a shard mutex inside a node.
type lockOp struct {
	key    string // rendered path of the mutex, e.g. "sh.mu"
	unlock bool
	call   *ast.CallExpr
}

// state is the per-node dataflow fact: which shard-lock keys may/must be
// held on entry.
type state struct {
	may  map[string]bool
	must map[string]bool
}

func cloneSet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func checkFunc(pass *analysis.Pass, r *reacher, fd *ast.FuncDecl) {
	info := pass.Info
	g := analysis.BuildCFG(fd.Body)

	entryHeld := map[string]bool{}
	if pass.Markers.Has(info.Defs[fd.Name], analysis.MarkRequiresLock) {
		entryHeld[callerLock] = true
	}

	// Pre-scan each node for its lock operations and checked calls.
	// Deferred calls and closure bodies are excluded: a deferred Unlock runs
	// at function exit, not where the defer statement sits, so treating it
	// as immediate would wrongly clear the lock mid-function. Leaving the
	// lock "held" for the rest of the body is the conservative reading and
	// the correct one for the fsync-under-lock check.
	ops := make(map[*analysis.Node][]lockOp)
	for _, n := range g.Nodes {
		for _, e := range n.Exprs() {
			eachImmediateCall(e, func(c *ast.CallExpr) {
				if op, ok := shardLockOp(pass, c); ok {
					ops[n] = append(ops[n], op)
				}
			})
		}
	}

	// Forward dataflow to fixpoint: may = union of preds, must =
	// intersection of visited preds.
	in := make(map[*analysis.Node]*state)
	out := make(map[*analysis.Node]*state)
	in[g.Entry] = &state{may: cloneSet(entryHeld), must: cloneSet(entryHeld)}
	work := []*analysis.Node{g.Entry}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		st := in[n]
		if st == nil {
			continue
		}
		o := &state{may: cloneSet(st.may), must: cloneSet(st.must)}
		for _, op := range ops[n] {
			if op.unlock {
				delete(o.may, op.key)
				delete(o.must, op.key)
				// an explicit unlock discharges the virtual caller lock
				// only if it is the sole held key; conservative: leave it.
			} else {
				o.may[op.key] = true
				o.must[op.key] = true
			}
		}
		if prev := out[n]; prev != nil && sameSet(prev.may, o.may) && sameSet(prev.must, o.must) {
			continue
		}
		out[n] = o
		for _, s := range n.Succs {
			prev := in[s]
			if prev == nil {
				in[s] = &state{may: cloneSet(o.may), must: cloneSet(o.must)}
				work = append(work, s)
				continue
			}
			changed := false
			for k := range o.may {
				if !prev.may[k] {
					prev.may[k] = true
					changed = true
				}
			}
			for k := range prev.must {
				if !o.must[k] {
					delete(prev.must, k)
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}

	// Checks per node, against the state holding *at* each operation
	// (locks acquired earlier in the same node count, in textual order).
	for _, n := range g.Nodes {
		st := in[n]
		if st == nil {
			continue // unreachable
		}
		held := &state{may: cloneSet(st.may), must: cloneSet(st.must)}
		nodeOps := ops[n]
		opIdx := 0
		for _, e := range n.Exprs() {
			eachImmediateCall(e, func(c *ast.CallExpr) {
				// Apply lock ops as we pass them.
				if opIdx < len(nodeOps) && nodeOps[opIdx].call == c {
					op := nodeOps[opIdx]
					opIdx++
					if op.unlock {
						delete(held.may, op.key)
						delete(held.must, op.key)
					} else {
						for k := range held.may {
							if k != op.key {
								pass.Reportf(c.Pos(), "shard lock %s acquired while %s may already be held: multi-shard operations must visit one shard at a time (ascending order, never nested)", op.key, k)
							}
						}
						held.may[op.key] = true
						held.must[op.key] = true
					}
					return
				}
				callee := analysis.Callee(info, c)
				if callee == nil {
					return
				}
				if pass.Markers.Has(callee, analysis.MarkRequiresLock) {
					if len(held.must) == 0 {
						pass.Reportf(c.Pos(), "%s requires the shard lock but no shard lock is held on every path to this call", analysis.FuncName(callee))
					}
				}
				for k := range held.may {
					if chain := r.waits(callee); chain != nil {
						pass.Reportf(c.Pos(), "%s must not run under a shard lock, but %s may be held here: it %s", analysis.FuncName(callee), k, blocksIn(chain))
					}
					break
				}
			})
		}
	}
}

// eachImmediateCall visits the calls that execute when the node itself
// does: it descends neither into defer statements (those run at exit) nor
// into function literals (those run whenever the closure is invoked).
func eachImmediateCall(root ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch x.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		}
		if c, ok := x.(*ast.CallExpr); ok {
			f(c)
		}
		return true
	})
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// shardLockOp recognizes x.mu.Lock() / x.mu.Unlock() where mu is a field
// marked //memolint:shard-lock, returning the rendered key of the mutex.
func shardLockOp(pass *analysis.Pass, c *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" {
		return lockOp{}, false
	}
	// receiver must be a selector whose field carries the marker
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fieldObj := pass.Info.Uses[recv.Sel]
	if fieldObj == nil || !pass.Markers.Has(fieldObj, analysis.MarkShardLock) {
		return lockOp{}, false
	}
	return lockOp{key: renderExpr(recv), unlock: name == "Unlock", call: c}, true
}

// renderExpr renders a lock path textually; distinct shards must render
// distinctly within one function for the nesting check to see them.
func renderExpr(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return renderExpr(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(v.X) + "[" + renderExpr(v.Index) + "]"
	case *ast.StarExpr:
		return renderExpr(v.X)
	case *ast.UnaryExpr:
		return renderExpr(v.X)
	case *ast.CallExpr:
		return renderExpr(v.Fun) + "()"
	case *ast.BasicLit:
		return v.Value
	}
	return "?"
}
