package collect

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// Future is an assign-once variable (§6.2.5): a folder that will only ever
// hold one memo. Producers Resolve it; consumers Wait (read without
// consuming, so any number of consumers see the value) or Take (consume,
// after which "the folder will vanish").
//
// Double-resolution is detected with a write token: NewFuture deposits one
// token in a guard folder, and Resolve must win it. A second Resolve finds
// the guard empty and fails with ErrAlreadyResolved — giving I-structures
// their single-assignment guarantee.
type Future struct {
	m     *core.Memo
	value symbol.Key
	guard symbol.Key
}

// NewFuture creates an unresolved future.
func NewFuture(m *core.Memo) (*Future, error) {
	s := m.CreateSymbol()
	f := &Future{
		m:     m,
		value: symbol.K(s, 0),
		guard: symbol.K(s, 1),
	}
	if err := m.Put(f.guard, transferable.Nil{}); err != nil {
		return nil, err
	}
	return f, nil
}

// BindFuture attaches to a future created elsewhere, by its value key's
// symbol.
func BindFuture(m *core.Memo, s symbol.Symbol) *Future {
	return &Future{m: m, value: symbol.K(s, 0), guard: symbol.K(s, 1)}
}

// Name returns the future's symbol, shareable with other processes.
func (f *Future) Name() symbol.Symbol { return f.value.S }

// Resolve assigns the value. A second Resolve fails.
func (f *Future) Resolve(v transferable.Value) error {
	if _, ok, err := f.m.GetSkip(f.guard); err != nil {
		return err
	} else if !ok {
		return ErrAlreadyResolved
	}
	return f.m.Put(f.value, v)
}

// Wait blocks until the future is resolved and returns the value without
// consuming it ("the consumer only being delayed if it attempts to fetch
// from a variable before it has been assigned").
func (f *Future) Wait() (transferable.Value, error) { return f.m.GetCopy(f.value) }

// Take consumes the value; the folder vanishes.
func (f *Future) Take() (transferable.Value, error) { return f.m.Get(f.value) }

// Poll reports the value if already resolved, without blocking or consuming.
func (f *Future) Poll() (transferable.Value, bool, error) {
	v, ok, err := f.m.GetSkip(f.value)
	if err != nil || !ok {
		return nil, false, err
	}
	// Non-destructive poll: put the value back.
	if err := f.m.Put(f.value, v); err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// AndThen arranges for task to drop into jobJar when the future resolves —
// "the consumer can delay a memo for a job jar in the future's folder that
// will trigger the desired computation when the data becomes available"
// (§6.2.5). Note the trigger consumes nothing: the value stays readable.
func (f *Future) AndThen(jobJar symbol.Key, task transferable.Value) error {
	return f.m.PutDelayed(f.value, jobJar, task)
}

// IStructure is an incremental structure: a collection of futures invented
// for dataflow (§6.2.5). Elements are write-once; reads of unwritten
// elements block until the producer assigns them.
type IStructure struct {
	m    *core.Memo
	name symbol.Symbol
	n    uint32
}

// NewIStructure creates an I-structure with n elements. Creation deposits
// one write token per element, so construction is O(n) puts — the cost of
// enforcing single assignment.
func NewIStructure(m *core.Memo, n uint32) (*IStructure, error) {
	is := &IStructure{m: m, name: m.CreateSymbol(), n: n}
	for i := uint32(0); i < n; i++ {
		if err := m.Put(is.guardKey(i), transferable.Nil{}); err != nil {
			return nil, err
		}
	}
	return is, nil
}

// BindIStructure attaches to an I-structure created elsewhere.
func BindIStructure(m *core.Memo, name symbol.Symbol, n uint32) *IStructure {
	return &IStructure{m: m, name: name, n: n}
}

// Name returns the structure's symbol.
func (is *IStructure) Name() symbol.Symbol { return is.name }

func (is *IStructure) valueKey(i uint32) symbol.Key { return symbol.K(is.name, i, 0) }
func (is *IStructure) guardKey(i uint32) symbol.Key { return symbol.K(is.name, i, 1) }

func (is *IStructure) check(i uint32) error {
	if i >= is.n {
		return fmt.Errorf("collect: i-structure index %d out of bounds [0,%d)", i, is.n)
	}
	return nil
}

// Set assigns element i exactly once; a second Set fails with
// ErrAlreadyResolved.
func (is *IStructure) Set(i uint32, v transferable.Value) error {
	if err := is.check(i); err != nil {
		return err
	}
	if _, ok, err := is.m.GetSkip(is.guardKey(i)); err != nil {
		return err
	} else if !ok {
		return ErrAlreadyResolved
	}
	return is.m.Put(is.valueKey(i), v)
}

// Get reads element i, blocking until it has been assigned. The value is
// not consumed: any number of readers see it.
func (is *IStructure) Get(i uint32) (transferable.Value, error) {
	if err := is.check(i); err != nil {
		return nil, err
	}
	return is.m.GetCopy(is.valueKey(i))
}

// AndThen triggers task into jobJar when element i is assigned (§6.3.3).
func (is *IStructure) AndThen(i uint32, jobJar symbol.Key, task transferable.Value) error {
	if err := is.check(i); err != nil {
		return err
	}
	return is.m.PutDelayed(is.valueKey(i), jobJar, task)
}

// Trigger is the bare §6.3.3 dataflow helper: when a memo arrives in
// operand, drop operation into jobJar.
func Trigger(m *core.Memo, operand, jobJar symbol.Key, operation transferable.Value) error {
	return m.PutDelayed(operand, jobJar, operation)
}
