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
// finishing a task the worker waits IdleTimeout for more work, then retires.
// Disabling the cache (Config.Disable) spawns a fresh goroutine per request
// — the ablation measured by experiment E1. Spawn/reuse counters make the
// difference observable.
package threadcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a pool.
type Config struct {
	// IdleTimeout is how long a finished worker lingers for more work.
	// Zero means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// MaxIdle bounds the number of lingering workers. Zero means
	// DefaultMaxIdle.
	MaxIdle int
	// Disable turns caching off: every task runs on a fresh goroutine.
	Disable bool
}

// Defaults.
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
	idle   []chan Task // stack: most recently parked worker first
	closed bool
	live   sync.WaitGroup

	spawned atomic.Int64
	reused  atomic.Int64
	retired atomic.Int64
}

// New returns a pool with the given configuration.
func New(cfg Config) *Pool {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.MaxIdle == 0 {
		cfg.MaxIdle = DefaultMaxIdle
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
		w := p.idle[n-1]
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

// worker runs its first task, then parks itself waiting for reuse until the
// idle timer fires. One handoff channel and one timer serve the worker's
// whole lifetime, so a run-then-park cycle allocates nothing.
func (p *Pool) worker(first Task) {
	defer p.live.Done()
	task := first
	ch := make(chan Task)
	timer := time.NewTimer(p.cfg.IdleTimeout)
	defer timer.Stop()
	for {
		task.run()
		p.mu.Lock()
		if p.closed || len(p.idle) >= p.cfg.MaxIdle {
			p.mu.Unlock()
			p.retired.Add(1)
			return
		}
		p.idle = append(p.idle, ch)
		p.mu.Unlock()

		// Go 1.23+ timers: Reset on a stopped or fired timer needs no drain.
		timer.Reset(p.cfg.IdleTimeout)
		select {
		case task = <-ch:
			timer.Stop()
			if task.Fn == nil { // pool closed while parked
				p.retired.Add(1)
				return
			}
		case <-timer.C:
			// Retire — but a Submit may have popped us concurrently and
			// be about to send. Remove ourselves under the lock; if we
			// are already gone, we must take the task.
			p.mu.Lock()
			removed := false
			for i, c := range p.idle {
				if c == ch {
					p.idle = append(p.idle[:i], p.idle[i+1:]...)
					removed = true
					break
				}
			}
			p.mu.Unlock()
			if removed {
				p.retired.Add(1)
				return
			}
			task = <-ch // a Submit won the race; serve it
			if task.Fn == nil {
				p.retired.Add(1)
				return
			}
		}
	}
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
	p.mu.Unlock()
	for _, ch := range idle {
		close(ch)
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
