// Package mdc implements Message Driven Computing, the pattern-driven
// language based on Actors that the paper reports implementing on top of
// D-Memo's API (§2, reference [4]).
//
// The model: an actor is a mailbox (a folder) plus a behaviour; computation
// is driven entirely by message arrival. Actor references are folder keys,
// so they travel inside memos like any other value — an actor on one host
// can hand its address to an actor on another. Beyond point-to-point actors,
// MDC's pattern-driven flavour appears as join patterns (When): an action
// fires when all of its operand folders hold memos, the paper's dataflow
// triggering generalized to multiple operands.
package mdc

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// Ref is an actor reference: the key of its mailbox folder. Refs are
// transferable (wrap in transferable.KeyValue to put them in messages).
type Ref struct {
	Key symbol.Key
}

// Value converts the ref to a transferable for embedding in messages.
func (r Ref) Value() transferable.Value { return transferable.KeyValue{K: r.Key} }

// RefFrom extracts a Ref from a transferable (the inverse of Value).
func RefFrom(v transferable.Value) (Ref, bool) {
	kv, ok := v.(transferable.KeyValue)
	if !ok {
		return Ref{}, false
	}
	return Ref{Key: kv.K}, true
}

// Behavior processes one message. It may send, spawn, become, or stop.
type Behavior func(ctx *Context, msg transferable.Value) error

// Context is an actor's view of the system during one message.
type Context struct {
	sys  *System
	next Behavior
	stop bool
}

// Send delivers a message to an actor (any host).
func (c *Context) Send(to Ref, msg transferable.Value) error { return c.sys.Send(to, msg) }

// Become replaces this actor's behaviour for subsequent messages (the
// Actors-model state change).
func (c *Context) Become(b Behavior) { c.next = b }

// Stop terminates this actor after the current message.
func (c *Context) Stop() { c.stop = true }

// System runs actors over one Memo handle. Each Spawn starts a dispatcher
// goroutine that blocks on the actor's mailbox folder — message arrival is
// the only thing that drives execution.
type System struct {
	m *core.Memo

	mu      sync.Mutex
	stopped bool
	cancel  chan struct{}
	wg      sync.WaitGroup

	errMu  sync.Mutex
	errs   []error
	onHalt []func()
}

// NewSystem creates an actor system on a Memo handle.
func NewSystem(m *core.Memo) *System {
	return &System{m: m, cancel: make(chan struct{})}
}

// Spawn creates an actor with a fresh anonymous mailbox.
func (s *System) Spawn(b Behavior) Ref {
	ref := Ref{Key: symbol.K(s.m.CreateSymbol())}
	s.attach(ref, b)
	return ref
}

// SpawnNamed creates an actor with a well-known mailbox name so processes
// on other hosts can address it without exchanging refs first.
func (s *System) SpawnNamed(name string, b Behavior) Ref {
	ref := Ref{Key: s.m.NamedKey("actor:" + name)}
	s.attach(ref, b)
	return ref
}

// LookupNamed returns the ref a SpawnNamed(name, ...) actor listens on.
// The actor may live in any process of the application.
func (s *System) LookupNamed(name string) Ref {
	return Ref{Key: s.m.NamedKey("actor:" + name)}
}

// attach starts the dispatcher loop.
func (s *System) attach(ref Ref, b Behavior) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		behavior := b
		for {
			msg, err := s.m.GetCancel(ref.Key, s.cancel)
			if err != nil {
				return // system shutting down (or handle closed)
			}
			if _, isStop := msg.(stopMsg); isStop {
				return
			}
			ctx := &Context{sys: s}
			if err := behavior(ctx, msg); err != nil {
				s.recordErr(fmt.Errorf("actor %v: %w", ref.Key, err))
				return
			}
			if ctx.stop {
				return
			}
			if ctx.next != nil {
				behavior = ctx.next
			}
		}
	}()
}

// stopMsg poisons a mailbox. It is process-local (never serialized): remote
// stops go through StopActor, which sends the marker string instead.
type stopMsg struct{}

func (stopMsg) Tag() transferable.Tag { return transferable.TagNil }

// Send delivers a message to any actor.
func (s *System) Send(to Ref, msg transferable.Value) error {
	return s.m.Put(to.Key, msg)
}

// When installs a join pattern: collect one memo from each operand folder
// (blocking per operand), then run action with the operands. If recur is
// true the pattern re-arms after each firing; otherwise it fires once.
// Operand collection takes folders in order, so a pattern does not hold
// partial sets hostage under contention with itself.
func (s *System) When(operands []symbol.Key, recur bool, action func(vals []transferable.Value) error) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			vals := make([]transferable.Value, len(operands))
			for i, k := range operands {
				v, err := s.m.GetCancel(k, s.cancel)
				if err != nil {
					return
				}
				vals[i] = v
			}
			if err := action(vals); err != nil {
				s.recordErr(fmt.Errorf("when %v: %w", operands, err))
				return
			}
			if !recur {
				return
			}
		}
	}()
}

func (s *System) recordErr(err error) {
	s.errMu.Lock()
	s.errs = append(s.errs, err)
	s.errMu.Unlock()
}

// Errs returns errors raised by actor behaviours so far.
func (s *System) Errs() []error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]error(nil), s.errs...)
}

// Shutdown cancels all dispatchers and waits for them to exit.
func (s *System) Shutdown() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.cancel)
	s.mu.Unlock()
	s.wg.Wait()
}

// ErrStopped reports an operation on a shut-down system.
var ErrStopped = errors.New("mdc: system stopped")
