package lucid

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// Cache memoizes stream elements. Evaluation is deterministic, so a cache
// may be shared by any number of evaluators — including evaluators in
// different processes when the cache is folder-backed.
type Cache interface {
	// Load returns the memoized element (name, i) if present.
	Load(name string, i int) (int64, bool)
	// Store memoizes an element. Storing the same element twice (races
	// between evaluators) is harmless: values are deterministic.
	Store(name string, i int, v int64)
}

// LocalCache is an in-process cache.
type LocalCache struct {
	mu sync.Mutex
	m  map[localKey]int64
}

type localKey struct {
	name string
	i    int
}

// NewLocalCache returns an empty cache.
func NewLocalCache() *LocalCache {
	return &LocalCache{m: make(map[localKey]int64)}
}

// Load implements Cache.
func (c *LocalCache) Load(name string, i int) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[localKey{name, i}]
	return v, ok
}

// Store implements Cache.
func (c *LocalCache) Store(name string, i int, v int64) {
	c.mu.Lock()
	c.m[localKey{name, i}] = v
	c.mu.Unlock()
}

// Len reports the number of memoized elements.
func (c *LocalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// FolderCache memoizes stream elements in D-Memo folders, so evaluators in
// different processes (on different hosts) share one demand-driven memo
// table — the paper's "simulation of demand driven dataflow" over the memo
// space. Element (name, i) lives in the folder {S: Named("lucid:"+name),
// X: [i]}; elements are write-once in value (deterministic), so the benign
// race of two evaluators storing the same element is tolerated and the
// folder keeps a single representative memo.
type FolderCache struct {
	m *core.Memo
}

// NewFolderCache builds a folder-backed cache over a Memo handle.
func NewFolderCache(m *core.Memo) *FolderCache {
	return &FolderCache{m: m}
}

func (c *FolderCache) key(name string, i int) symbol.Key {
	return c.m.NamedKey("lucid:"+name, uint32(i))
}

// Load implements Cache with a non-destructive read: take the memo, put it
// back. A concurrent Load may miss while we hold the memo; it merely
// recomputes the same value.
func (c *FolderCache) Load(name string, i int) (int64, bool) {
	k := c.key(name, i)
	v, ok, err := c.m.GetSkip(k)
	if err != nil || !ok {
		return 0, false
	}
	n, isInt := transferable.AsInt(v)
	// Restore the memo for other readers.
	if perr := c.m.Put(k, v); perr != nil || !isInt {
		return 0, false
	}
	return n, true
}

// Store implements Cache, keeping at most one memo per element: if another
// evaluator stored the element first, ours is discarded.
func (c *FolderCache) Store(name string, i int, v int64) {
	k := c.key(name, i)
	//memolint:ignore errgate the cache is best-effort: a failed probe degrades to recomputing a deterministic value, never to a wrong one
	if _, present, _ := c.m.GetSkip(k); present {
		// Someone stored it already (we hold their memo); put theirs back.
		//memolint:ignore errgate best-effort cache refill of a deterministic value; a lost memo only costs recomputation
		_ = c.m.Put(k, transferable.Int64(v)) // same deterministic value
		return
	}
	//memolint:ignore errgate best-effort cache store of a deterministic value; a lost memo only costs recomputation
	_ = c.m.Put(k, transferable.Int64(v))
}

// EvalError reports an evaluation failure.
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "lucid: " + e.Msg }

// Evaluator computes stream elements on demand.
type Evaluator struct {
	prog  *Program
	cache Cache
	// MaxScan bounds whenever/asa searches (and so non-terminating
	// filters). Default 1 << 20 examined elements per operator application.
	MaxScan int

	mu         sync.Mutex
	inProgress map[localKey]bool
}

// NewEvaluator builds an evaluator over a program and cache. A nil cache
// gets a fresh LocalCache.
func NewEvaluator(prog *Program, cache Cache) *Evaluator {
	if cache == nil {
		cache = NewLocalCache()
	}
	return &Evaluator{
		prog:       prog,
		cache:      cache,
		MaxScan:    1 << 20,
		inProgress: make(map[localKey]bool),
	}
}

// At returns element i of the named stream.
func (ev *Evaluator) At(name string, i int) (int64, error) {
	if i < 0 {
		return 0, &EvalError{fmt.Sprintf("negative index %d", i)}
	}
	e, ok := ev.prog.Equations[name]
	if !ok {
		return 0, &EvalError{fmt.Sprintf("undefined stream %q", name)}
	}
	if v, ok := ev.cache.Load(name, i); ok {
		return v, nil
	}
	k := localKey{name, i}
	ev.mu.Lock()
	if ev.inProgress[k] {
		ev.mu.Unlock()
		return 0, &EvalError{fmt.Sprintf("circular definition: %s at index %d depends on itself", name, i)}
	}
	ev.inProgress[k] = true
	ev.mu.Unlock()
	defer func() {
		ev.mu.Lock()
		delete(ev.inProgress, k)
		ev.mu.Unlock()
	}()

	v, err := ev.eval(e, i)
	if err != nil {
		return 0, err
	}
	ev.cache.Store(name, i, v)
	return v, nil
}

// Take returns the first n elements of the named stream.
func (ev *Evaluator) Take(name string, n int) ([]int64, error) {
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		v, err := ev.At(name, i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func truth(v int64) bool { return v != 0 }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (ev *Evaluator) eval(e Expr, i int) (int64, error) {
	switch x := e.(type) {
	case Num:
		return x.V, nil
	case Var:
		return ev.At(x.Name, i)
	case Unary:
		v, err := ev.eval(x.E, i)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "not":
			return b2i(!truth(v)), nil
		}
		return 0, &EvalError{"unknown unary op " + x.Op}
	case Binary:
		l, err := ev.eval(x.L, i)
		if err != nil {
			return 0, err
		}
		// Short-circuit logic.
		switch x.Op {
		case "and":
			if !truth(l) {
				return 0, nil
			}
			r, err := ev.eval(x.R, i)
			if err != nil {
				return 0, err
			}
			return b2i(truth(r)), nil
		case "or":
			if truth(l) {
				return 1, nil
			}
			r, err := ev.eval(x.R, i)
			if err != nil {
				return 0, err
			}
			return b2i(truth(r)), nil
		}
		r, err := ev.eval(x.R, i)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, &EvalError{"division by zero"}
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, &EvalError{"modulo by zero"}
			}
			return l % r, nil
		case "==":
			return b2i(l == r), nil
		case "!=":
			return b2i(l != r), nil
		case "<":
			return b2i(l < r), nil
		case "<=":
			return b2i(l <= r), nil
		case ">":
			return b2i(l > r), nil
		case ">=":
			return b2i(l >= r), nil
		}
		return 0, &EvalError{"unknown operator " + x.Op}
	case If:
		c, err := ev.eval(x.Cond, i)
		if err != nil {
			return 0, err
		}
		if truth(c) {
			return ev.eval(x.Then, i)
		}
		return ev.eval(x.Else, i)
	case First:
		return ev.eval(x.E, 0)
	case Next:
		return ev.eval(x.E, i+1)
	case Fby:
		if i == 0 {
			return ev.eval(x.L, 0)
		}
		return ev.eval(x.R, i-1)
	case Whenever:
		// Find the index t of the i-th true element of P.
		seen := 0
		for t := 0; t < ev.MaxScan; t++ {
			p, err := ev.eval(x.P, t)
			if err != nil {
				return 0, err
			}
			if truth(p) {
				if seen == i {
					return ev.eval(x.X, t)
				}
				seen++
			}
		}
		return 0, &EvalError{fmt.Sprintf("whenever: no %d-th true element within %d steps", i, ev.MaxScan)}
	case Asa:
		for t := 0; t < ev.MaxScan; t++ {
			p, err := ev.eval(x.P, t)
			if err != nil {
				return 0, err
			}
			if truth(p) {
				return ev.eval(x.X, t)
			}
		}
		return 0, &EvalError{fmt.Sprintf("asa: no true element within %d steps", ev.MaxScan)}
	}
	return 0, &EvalError{fmt.Sprintf("unknown expression %T", e)}
}
