// Package collect implements the shared data structures and synchronization
// mechanisms of paper §6.2 and §6.3, built purely from folders and memos via
// the core Memo API — exactly as the paper constructs them:
//
//   - NamedObject: a folder holding at most one memo stands in for a heap
//     object; folder names replace pointers (§6.2.1).
//   - Array: element a[i,j] lives in the folder keyed {S:a, X:[i,j]}
//     (§6.2.2).
//   - Queue: a folder is an unordered queue (§6.2.3).
//   - JobJar: an unordered queue of tasks, with per-process jars and a
//     common jar drained through get_alt (§6.2.4).
//   - Future and IStructure: assign-once variables and collections of them
//     (§6.2.5), with dataflow triggering via put_delayed.
//   - Lock: shared records are implicitly locked by extraction (§6.3.1).
//   - Semaphore: a lock initialized with N memos (§6.3.2).
//   - Barrier: built from a shared counter record plus release tokens.
//   - Trigger: the §6.3.3 dataflow helper.
package collect

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// Errors.
var (
	// ErrAlreadyResolved reports a second write to a future/I-structure cell.
	ErrAlreadyResolved = errors.New("collect: future already resolved")
)

// NamedObject is a dynamically allocated shared object: a folder that holds
// at most one memo. "Instead of pointers to objects, we use folder names."
type NamedObject struct {
	m   *core.Memo
	key symbol.Key
}

// NewNamedObject allocates a fresh anonymous object holding initial.
func NewNamedObject(m *core.Memo, initial transferable.Value) (*NamedObject, error) {
	o := &NamedObject{m: m, key: symbol.K(m.CreateSymbol())}
	if err := m.Put(o.key, initial); err != nil {
		return nil, err
	}
	return o, nil
}

// BindNamedObject attaches to an existing object by its folder key (the
// "pointer" another process passed in a memo).
func BindNamedObject(m *core.Memo, key symbol.Key) *NamedObject {
	return &NamedObject{m: m, key: key}
}

// Key returns the object's folder name — the pointer to pass around.
func (o *NamedObject) Key() symbol.Key { return o.key }

// Read returns the current value without taking it (blocking).
func (o *NamedObject) Read() (transferable.Value, error) {
	return o.m.GetCopy(o.key)
}

// Take removes the value, implicitly locking the object (§6.3.1).
func (o *NamedObject) Take() (transferable.Value, error) {
	return o.m.Get(o.key)
}

// Put stores a value back, releasing the implicit lock.
func (o *NamedObject) Put(v transferable.Value) error {
	return o.m.Put(o.key, v)
}

// Update applies f atomically with respect to other Update/Take callers.
func (o *NamedObject) Update(f func(transferable.Value) (transferable.Value, error)) error {
	v, err := o.Take()
	if err != nil {
		return err
	}
	nv, err := f(v)
	if err != nil {
		// Restore the record so the object is not left locked.
		if perr := o.Put(v); perr != nil {
			return fmt.Errorf("collect: update failed (%v) and restore failed: %w", err, perr)
		}
		return err
	}
	return o.Put(nv)
}

// Array is a shared array of objects: element [i,j,...] is the folder
// {S: name, X: [i,j,...]} (§6.2.2's FOLDER_NAME construction).
type Array struct {
	m    *core.Memo
	name symbol.Symbol
	dims []uint32
}

// NewArray creates an array abstraction over a fresh symbol with the given
// dimensions (bounds are checked on access).
func NewArray(m *core.Memo, dims ...uint32) *Array {
	return &Array{m: m, name: m.CreateSymbol(), dims: dims}
}

// BindArray attaches to an array created by another process.
func BindArray(m *core.Memo, name symbol.Symbol, dims ...uint32) *Array {
	return &Array{m: m, name: name, dims: dims}
}

// Name returns the array's symbol, shareable with other processes.
func (a *Array) Name() symbol.Symbol { return a.name }

// ElementKey computes the folder key of an element.
func (a *Array) ElementKey(idx ...uint32) (symbol.Key, error) {
	if len(idx) != len(a.dims) {
		return symbol.Key{}, fmt.Errorf("collect: array is %d-dimensional, got %d indices", len(a.dims), len(idx))
	}
	for d, i := range idx {
		if i >= a.dims[d] {
			return symbol.Key{}, fmt.Errorf("collect: index %d out of bounds [0,%d)", i, a.dims[d])
		}
	}
	return symbol.K(a.name, idx...), nil
}

// Set stores an element (replacing any existing value: it takes the old one
// first if present, keeping at most one memo per element folder).
func (a *Array) Set(v transferable.Value, idx ...uint32) error {
	k, err := a.ElementKey(idx...)
	if err != nil {
		return err
	}
	// Drop any previous value: element folders hold at most one memo.
	if _, _, err := a.m.GetSkip(k); err != nil {
		return err
	}
	return a.m.Put(k, v)
}

// Get reads an element without consuming it, blocking until it is set.
// This is also the I-structure read behaviour: reads of unwritten elements
// wait for the producer.
func (a *Array) Get(idx ...uint32) (transferable.Value, error) {
	k, err := a.ElementKey(idx...)
	if err != nil {
		return nil, err
	}
	return a.m.GetCopy(k)
}

// Take removes an element (implicit lock; put it back with Set).
func (a *Array) Take(idx ...uint32) (transferable.Value, error) {
	k, err := a.ElementKey(idx...)
	if err != nil {
		return nil, err
	}
	return a.m.Get(k)
}

// TryGet polls an element without blocking or consuming. Note: implemented
// as a non-destructive poll via GetSkip+Put, so a concurrent Take can race;
// use Get for synchronization.
func (a *Array) TryGet(idx ...uint32) (transferable.Value, bool, error) {
	k, err := a.ElementKey(idx...)
	if err != nil {
		return nil, false, err
	}
	v, ok, err := a.m.GetSkip(k)
	if err != nil || !ok {
		return nil, false, err
	}
	if err := a.m.Put(k, v); err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Queue is an unordered queue: processes "communicate simply by passing
// memos through a folder" (§6.2.3).
type Queue struct {
	m   *core.Memo
	key symbol.Key
}

// NewQueue creates a fresh anonymous queue.
func NewQueue(m *core.Memo) *Queue {
	return &Queue{m: m, key: symbol.K(m.CreateSymbol())}
}

// NamedQueue attaches to a well-known queue by name.
func NamedQueue(m *core.Memo, name string) *Queue {
	return &Queue{m: m, key: m.NamedKey(name)}
}

// Enqueue deposits a value.
func (q *Queue) Enqueue(v transferable.Value) error { return q.m.Put(q.key, v) }

// Dequeue removes some value, blocking while empty. No order is promised.
func (q *Queue) Dequeue() (transferable.Value, error) { return q.m.Get(q.key) }

// TryDequeue removes a value if present.
func (q *Queue) TryDequeue() (transferable.Value, bool, error) { return q.m.GetSkip(q.key) }
