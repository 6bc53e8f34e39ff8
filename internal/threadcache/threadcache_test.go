package threadcache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsTasks(t *testing.T) {
	p := New(Config{})
	defer func() { p.Close(); p.Wait() }()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(func() { n.Add(1); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks", n.Load())
	}
}

func TestSequentialTasksReuseWorker(t *testing.T) {
	p := New(Config{IdleTimeout: time.Second})
	defer func() { p.Close(); p.Wait() }()
	done := make(chan struct{}, 1)
	p.Submit(func() { done <- struct{}{} })
	<-done
	// Give the worker a moment to park.
	waitIdle(t, p, 1)
	for i := 0; i < 10; i++ {
		p.Submit(func() { done <- struct{}{} })
		<-done
		waitIdle(t, p, 1)
	}
	if n := p.spawned.Load(); n != 1 {
		t.Fatalf("spawned %d workers for sequential tasks, want 1", n)
	}
	if n := p.reused.Load(); n != 10 {
		t.Fatalf("reused = %d want 10", n)
	}
}

// idleCount is the number of parked workers.
func idleCount(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func waitIdle(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for idleCount(p) < want {
		if time.Now().After(deadline) {
			t.Fatalf("worker never parked (idle=%d)", idleCount(p))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestWorkerRetiresAfterIdleTimeout(t *testing.T) {
	p := New(Config{IdleTimeout: 10 * time.Millisecond})
	defer func() { p.Close(); p.Wait() }()
	done := make(chan struct{})
	p.Submit(func() { close(done) })
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for p.retired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never retired")
		}
		time.Sleep(time.Millisecond)
	}
	if idleCount(p) != 0 {
		t.Fatalf("idle = %d after retirement", idleCount(p))
	}
}

func TestDisableSpawnsPerTask(t *testing.T) {
	p := New(Config{Disable: true})
	defer func() { p.Close(); p.Wait() }()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		p.Submit(func() { wg.Done() })
	}
	wg.Wait()
	if spawned, reused := p.spawned.Load(), p.reused.Load(); spawned != 20 || reused != 0 {
		t.Fatalf("disable mode: spawned=%d reused=%d", spawned, reused)
	}
}

func TestMaxIdleBounded(t *testing.T) {
	p := New(Config{IdleTimeout: time.Second})
	defer func() { p.Close(); p.Wait() }()
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 4*DefaultMaxIdle; i++ {
		wg.Add(1)
		p.Submit(func() { <-gate; wg.Done() })
	}
	close(gate)
	wg.Wait()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if n := idleCount(p); n > DefaultMaxIdle {
			t.Fatalf("idle = %d exceeds DefaultMaxIdle %d", n, DefaultMaxIdle)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	p := New(Config{})
	p.Close()
	if err := p.Submit(func() {}); err != ErrClosed {
		t.Fatalf("got %v want ErrClosed", err)
	}
	pd := New(Config{Disable: true})
	pd.Close()
	if err := pd.Submit(func() {}); err != ErrClosed {
		t.Fatalf("disabled pool: got %v want ErrClosed", err)
	}
}

func TestCloseIdempotentAndWaits(t *testing.T) {
	p := New(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	p.Submit(func() { close(started); <-release })
	<-started
	p.Close()
	p.Close() // idempotent
	waited := make(chan struct{})
	go func() { p.Wait(); close(waited) }()
	select {
	case <-waited:
		t.Fatal("Wait returned while task still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func TestConcurrentSubmitStress(t *testing.T) {
	p := New(Config{IdleTimeout: 5 * time.Millisecond})
	defer func() { p.Close(); p.Wait() }()
	var n atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var inner sync.WaitGroup
				inner.Add(1)
				if err := p.Submit(func() { n.Add(1); inner.Done() }); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				inner.Wait()
			}
		}()
	}
	wg.Wait()
	if n.Load() != 16*200 {
		t.Fatalf("ran %d want %d", n.Load(), 16*200)
	}
}

func TestCachingReducesSpawns(t *testing.T) {
	// The E1 claim at unit scale: with caching, far fewer spawns than tasks.
	spawns := func(disable bool) int64 {
		p := New(Config{IdleTimeout: 200 * time.Millisecond, Disable: disable})
		defer func() { p.Close(); p.Wait() }()
		var wg sync.WaitGroup
		for i := 0; i < 500; i++ {
			wg.Add(1)
			p.Submit(func() { wg.Done() })
			if i%10 == 9 {
				wg.Wait() // let workers park periodically
			}
		}
		wg.Wait()
		return p.spawned.Load()
	}
	cached := spawns(false)
	uncached := spawns(true)
	if uncached != 500 {
		t.Fatalf("uncached spawned = %d", uncached)
	}
	if cached >= uncached/2 {
		t.Fatalf("caching barely helped: %d vs %d spawns", cached, uncached)
	}
}

// TestWarmCycleAllocatesNothing: a cached worker keeps one handoff channel
// and one timer for its lifetime, so SubmitArg → run → park costs no
// allocation (a fresh timer per park cost three).
func TestWarmCycleAllocatesNothing(t *testing.T) {
	p := New(Config{IdleTimeout: time.Minute})
	defer func() { p.Close(); p.Wait() }()
	done := make(chan struct{})
	fn := func(any) { done <- struct{}{} }
	cycle := func() {
		if err := p.SubmitArg(fn, nil); err != nil {
			t.Fatal(err)
		}
		<-done
		for idleCount(p) == 0 { // parked again: the next cycle reuses it
			runtime.Gosched()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("warm SubmitArg/run/park cycle allocates %.1f/op, want 0", allocs)
	}
	if n := p.spawned.Load(); n != 1 {
		t.Fatalf("spawned %d workers, want the one reused throughout", n)
	}
}

// TestIdleWorkersRetireWithoutTraffic: after a burst, with nothing submitted
// since, the one pool-level sweep retires every worker within a few idle
// timeouts and disarms; Close with a sweep pending neither panics nor leaves
// a goroutine behind.
func TestIdleWorkersRetireWithoutTraffic(t *testing.T) {
	armed := func(p *Pool) bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.armed
	}
	before := runtime.NumGoroutine()

	const idle = 50 * time.Millisecond
	p := New(Config{IdleTimeout: idle})
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		p.Submit(func() { <-gate; wg.Done() })
	}
	close(gate)
	wg.Wait()
	deadline := time.Now().Add(3 * idle)
	for {
		spawned, retired := p.spawned.Load(), p.retired.Load()
		if retired == spawned && idleCount(p) == 0 && !armed(p) {
			if spawned != 16 {
				t.Fatalf("a burst of 16 concurrent tasks spawned %d workers", spawned)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("3 idle timeouts after the burst: spawned=%d retired=%d, idle=%d, sweep armed=%v", spawned, retired, idleCount(p), armed(p))
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	p.Wait()

	// Close with the sweep pending — an hour away, and then racing its
	// firing at 1 ms.
	for i, timeout := range []time.Duration{time.Hour, time.Millisecond, time.Millisecond, time.Millisecond} {
		q := New(Config{IdleTimeout: timeout})
		done := make(chan struct{})
		q.Submit(func() { close(done) })
		<-done
		if i == 0 {
			waitIdle(t, q, 1)
			if !armed(q) {
				t.Fatal("a parked worker left the sweep disarmed")
			}
		} else {
			time.Sleep(time.Duration(i) * 500 * time.Microsecond)
		}
		q.Close()
		q.Wait()
		if armed(q) {
			t.Fatal("sweep still armed after Close")
		}
	}
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the pools", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSubmitPark is one warm submit → run → park cycle: SubmitArg with a
// static function, the task's signal, and the worker back on the stack.
func BenchmarkSubmitPark(b *testing.B) {
	p := New(Config{})
	defer func() { p.Close(); p.Wait() }()
	done := make(chan struct{})
	fn := func(any) { done <- struct{}{} }
	b.ReportAllocs()
	for b.Loop() {
		if err := p.SubmitArg(fn, nil); err != nil {
			b.Fatal(err)
		}
		<-done
		for idleCount(p) == 0 {
			runtime.Gosched()
		}
	}
}

func BenchmarkSubmitCached(b *testing.B) {
	p := New(Config{IdleTimeout: time.Second})
	defer func() { p.Close(); p.Wait() }()
	done := make(chan struct{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func() { done <- struct{}{} })
		<-done
	}
}

func BenchmarkSubmitUncached(b *testing.B) {
	p := New(Config{Disable: true})
	defer func() { p.Close(); p.Wait() }()
	done := make(chan struct{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(func() { done <- struct{}{} })
		<-done
	}
}
