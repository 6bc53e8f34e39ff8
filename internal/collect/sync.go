package collect

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// Lock is the §6.3.1 mechanism: a folder holding one token memo. Lock takes
// the token (blocking competitors), Unlock puts it back. Shared records get
// the same effect implicitly by extracting the record itself.
type Lock struct {
	m   *core.Memo
	key symbol.Key
}

// NewLock creates an unlocked lock.
func NewLock(m *core.Memo) (*Lock, error) {
	l := &Lock{m: m, key: symbol.K(m.CreateSymbol())}
	if err := m.Put(l.key, transferable.Nil{}); err != nil {
		return nil, err
	}
	return l, nil
}

// Key returns the lock's folder key.
func (l *Lock) Key() symbol.Key { return l.key }

// Lock acquires the token, blocking until available.
func (l *Lock) Lock() error {
	_, err := l.m.Get(l.key)
	return err
}

// TryLock acquires the token without blocking.
func (l *Lock) TryLock() (bool, error) {
	_, ok, err := l.m.GetSkip(l.key)
	return ok, err
}

// Unlock returns the token.
func (l *Lock) Unlock() error { return l.m.Put(l.key, transferable.Nil{}) }

// Semaphore is the §6.3.2 counting semaphore: "identical to a lock, except
// that the semaphore is initialized with as many memos as needed".
type Semaphore struct {
	m   *core.Memo
	key symbol.Key
}

// NewSemaphore creates a semaphore with n permits.
func NewSemaphore(m *core.Memo, n int) (*Semaphore, error) {
	if n < 0 {
		return nil, fmt.Errorf("collect: negative semaphore count %d", n)
	}
	s := &Semaphore{m: m, key: symbol.K(m.CreateSymbol())}
	for i := 0; i < n; i++ {
		if err := m.Put(s.key, transferable.Nil{}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// BindSemaphore attaches to a semaphore created elsewhere.
func BindSemaphore(m *core.Memo, key symbol.Key) *Semaphore {
	return &Semaphore{m: m, key: key}
}

// Key returns the semaphore's folder key.
func (s *Semaphore) Key() symbol.Key { return s.key }

// P (wait) takes a permit.
func (s *Semaphore) P() error {
	_, err := s.m.Get(s.key)
	return err
}

// V (signal) returns a permit.
func (s *Semaphore) V() error { return s.m.Put(s.key, transferable.Nil{}) }

// Barrier synchronizes n processes. Arrival updates a shared counter record
// (implicitly locked, §6.3.1); the last arrival refills the release folder
// with n tokens for the next generation. Generations are tracked in the
// release key's index vector so a fast process cannot lap a slow one.
type Barrier struct {
	m    *core.Memo
	name symbol.Symbol
	n    int64
}

// NewBarrier creates a barrier for n parties and returns its symbol for
// sharing.
func NewBarrier(m *core.Memo, n int) (*Barrier, error) {
	if n <= 0 {
		return nil, fmt.Errorf("collect: barrier needs n >= 1, got %d", n)
	}
	b := &Barrier{m: m, name: m.CreateSymbol(), n: int64(n)}
	// Counter record: [count, generation].
	if err := m.Put(b.counterKey(), transferable.NewList(transferable.Int64(0), transferable.Int64(0))); err != nil {
		return nil, err
	}
	return b, nil
}

// BindBarrier attaches to a barrier created elsewhere.
func BindBarrier(m *core.Memo, name symbol.Symbol, n int) *Barrier {
	return &Barrier{m: m, name: name, n: int64(n)}
}

// Name returns the barrier's symbol.
func (b *Barrier) Name() symbol.Symbol { return b.name }

func (b *Barrier) counterKey() symbol.Key { return symbol.K(b.name, 0) }
func (b *Barrier) releaseKey(gen int64) symbol.Key {
	return symbol.K(b.name, 1, uint32(gen%1024)+1)
}

// Await blocks until all n parties have arrived.
func (b *Barrier) Await() error { return b.AwaitCancel(nil) }

// AwaitCancel is Await with cancellation. Canceling mid-round may strand
// the round; cancellation is for shutdown, not control flow.
func (b *Barrier) AwaitCancel(cancel <-chan struct{}) error {
	// Take the counter record (implicit lock).
	v, err := b.m.GetCancel(b.counterKey(), cancel)
	if err != nil {
		return err
	}
	rec, ok := v.(*transferable.List)
	if !ok || rec.Len() != 2 {
		return fmt.Errorf("collect: corrupt barrier record %v", v)
	}
	count, _ := transferable.AsInt(rec.At(0))
	gen, _ := transferable.AsInt(rec.At(1))
	count++
	if count == b.n {
		// Last arrival: open the barrier. Reset the counter for the next
		// generation, then release everyone (including ourselves).
		if err := b.m.Put(b.counterKey(), transferable.NewList(transferable.Int64(0), transferable.Int64(gen+1))); err != nil {
			return err
		}
		for i := int64(0); i < b.n; i++ {
			if err := b.m.Put(b.releaseKey(gen), transferable.Nil{}); err != nil {
				return err
			}
		}
	} else {
		if err := b.m.Put(b.counterKey(), transferable.NewList(transferable.Int64(count), transferable.Int64(gen))); err != nil {
			return err
		}
	}
	_, err = b.m.GetCancel(b.releaseKey(gen), cancel)
	return err
}
