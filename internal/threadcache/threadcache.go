// Package threadcache implements the servers' thread caching (paper §4.1).
//
// "Each request to a server will cause a thread to be created to handle the
// request... The system uses the idea of thread caching to avoid the
// overhead of creating processes un-necessarily. When a thread completes its
// transactions, it will set a timer and wait for additional requests. If a
// request comes in, the thread will handle it. If not, it will terminate."
//
// A Pool transliterates that into goroutines: Submit hands the task to an
// idle cached worker if one exists; otherwise it spawns a new worker. After
// finishing a task the worker parks on its channel; one pool-level timer,
// armed while any worker is idle, retires those idle for IdleTimeout — the
// paper's per-thread timer, without arming one per request.
// Disabling the cache (Config.Disable) spawns a fresh goroutine per request
// — the ablation measured by experiment E1. Spawn/reuse counters make the
// difference observable.
package threadcache

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a pool.
type Config struct {
	// IdleTimeout is how long a finished worker lingers for more work.
	// Zero means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// Disable turns caching off: every task runs on a fresh goroutine.
	Disable bool
}

// DefaultIdleTimeout is the idle timeout of a zero Config; DefaultMaxIdle
// bounds the number of lingering workers.
const (
	DefaultIdleTimeout = 100 * time.Millisecond
	DefaultMaxIdle     = 64
)

// Stats counts pool activity.
type Stats struct {
	// Spawned is the number of worker goroutines created.
	Spawned int64
	// Reused is the number of tasks handled by an already-cached worker.
	Reused int64
	// Retired is the number of workers that idled out.
	Retired int64
}

// ErrClosed reports Submit on a closed pool.
var ErrClosed = errors.New("threadcache: pool closed")

// Task is one unit of work: a function plus its argument. Splitting the two
// lets steady-state callers submit a static function with a pooled argument
// struct instead of allocating a fresh closure per request — the rpc server
// dispatches every batched request this way. A zero Task (nil Fn) is the
// sentinel a closed worker channel yields and is never run.
type Task struct {
	Fn  func(any)
	Arg any
}

func (t Task) run() { t.Fn(t.Arg) }

// runFunc adapts a plain func() to the Task shape. Converting a func value
// into an interface does not allocate (func values are pointer-shaped), so
// Submit stays a single-word wrap of SubmitTask.
func runFunc(a any) { a.(func())() }

// Pool is a cache of worker goroutines.
type Pool struct {
	cfg Config

	mu     sync.Mutex
	idle   []idleWorker // stack: Submit pops the newest; idle[0] has waited longest
	sweep  *time.Timer  // retires idle workers; created on the first park
	armed  bool         // sweep is pending
	closed bool
	live   sync.WaitGroup

	spawned atomic.Int64
	reused  atomic.Int64
	retired atomic.Int64
}

// idleWorker is a parked worker: the channel it waits on, and since when.
type idleWorker struct {
	ch     chan Task
	parked time.Time
}

// New returns a pool with the given configuration.
func New(cfg Config) *Pool {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	return &Pool{cfg: cfg}
}

// Submit runs task on a cached or fresh worker. It never blocks on the task.
func (p *Pool) Submit(task func()) error {
	return p.SubmitTask(Task{Fn: runFunc, Arg: task})
}

// SubmitArg runs fn(arg) on a cached or fresh worker — the allocation-free
// submission path: fn is typically a static function and arg a pooled
// struct, so nothing about the handoff itself hits the heap.
func (p *Pool) SubmitArg(fn func(any), arg any) error {
	return p.SubmitTask(Task{Fn: fn, Arg: arg})
}

// SubmitTask runs t on a cached or fresh worker. It never blocks on the task.
func (p *Pool) SubmitTask(t Task) error {
	if p.cfg.Disable {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return ErrClosed
		}
		p.live.Add(1)
		p.mu.Unlock()
		p.spawned.Add(1)
		go func() {
			defer p.live.Done()
			t.run()
		}()
		return nil
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1].ch
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		p.reused.Add(1)
		w <- t
		return nil
	}
	p.live.Add(1)
	p.mu.Unlock()
	p.spawned.Add(1)
	go p.worker(t)
	return nil
}

// worker runs its first task, then parks on its channel until Submit hands
// it the next one or the sweep closes the channel. One channel serves the
// worker's whole lifetime, so a run-then-park cycle allocates nothing.
func (p *Pool) worker(task Task) {
	defer p.live.Done()
	ch := make(chan Task)
	for task.Fn != nil { // a closed channel yields the zero Task
		task.run()
		if !p.park(ch) {
			break
		}
		task = <-ch
	}
	p.retired.Add(1)
}

// park pushes ch onto the idle stack, arming the sweep if it is not pending.
// False: the worker retires instead (pool closed or full).
func (p *Pool) park(ch chan Task) bool {
	p.mu.Lock()
	if p.closed || len(p.idle) >= DefaultMaxIdle {
		p.mu.Unlock()
		return false
	}
	p.idle = append(p.idle, idleWorker{ch, time.Now()})
	if !p.armed {
		p.armed = true
		if p.sweep == nil {
			p.sweep = time.AfterFunc(p.cfg.IdleTimeout, p.retireIdle)
		} else {
			p.sweep.Reset(p.cfg.IdleTimeout)
		}
	}
	p.mu.Unlock()
	return true
}

// retireIdle is the sweep: it closes the channels of workers idle for
// IdleTimeout — the bottom of the stack — and re-arms for the next-oldest,
// or disarms when none is left. A popped worker is off the stack, so the
// sweep never closes a channel Submit is sending on.
func (p *Pool) retireIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	now := time.Now()
	n := 0
	for n < len(p.idle) && now.Sub(p.idle[n].parked) >= p.cfg.IdleTimeout {
		close(p.idle[n].ch)
		n++
	}
	p.idle = slices.Delete(p.idle, 0, n)
	if len(p.idle) == 0 {
		p.armed = false
		return
	}
	p.sweep.Reset(p.idle[0].parked.Add(p.cfg.IdleTimeout).Sub(now))
}

// Close retires all idle workers and rejects future Submits. It does not
// interrupt running tasks; use Wait to block for them.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	if p.armed {
		p.sweep.Stop()
		p.armed = false
	}
	p.mu.Unlock()
	for _, w := range idle {
		close(w.ch)
	}
}

// Wait blocks until all running tasks complete. Call after Close.
func (p *Pool) Wait() { p.live.Wait() }

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Spawned: p.spawned.Load(),
		Reused:  p.reused.Load(),
		Retired: p.retired.Load(),
	}
}

// IdleCount reports the number of parked workers (diagnostics).
func (p *Pool) IdleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
