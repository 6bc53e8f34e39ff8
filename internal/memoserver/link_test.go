package memoserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// scriptedDial fails a scripted number of times before each success and
// records the time of every attempt. A success is one end of a pipe nobody
// serves: enough for an rpc.Conn to be alive.
type scriptedDial struct {
	mu       sync.Mutex
	failures int // fail this many dials, then succeed until reset
	times    []time.Time
}

func (s *scriptedDial) dial() (transport.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.times = append(s.times, time.Now())
	if s.failures > 0 {
		s.failures--
		return nil, errors.New("scripted dial failure")
	}
	a, _ := transport.Pipe("a", "b")
	return a, nil
}

func testLink(t *testing.T, dial func() (transport.Conn, error), bo transport.Backoff) *rlink {
	t.Helper()
	l := newRlink(dial, rpc.Resilience{Redial: bo})
	t.Cleanup(l.close)
	return l
}

func (l *rlink) failedAttempts() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempt
}

func TestLinkBackoffPacingAndResetOnSuccess(t *testing.T) {
	const min = 30 * time.Millisecond
	sd := &scriptedDial{failures: 3}
	l := testLink(t, sd.dial, transport.Backoff{Min: min, Max: time.Second})

	// Three failing gets: the first dial is immediate, the next waits
	// ≥ Min·(1-j), the next ≥ 2·Min·(1-j).
	for i := 0; i < 3; i++ {
		if _, err := l.get(nil); err == nil {
			t.Fatalf("get %d succeeded with dial scripted to fail", i)
		}
		if got := l.failedAttempts(); got != i+1 {
			t.Fatalf("after failure %d: %d failed attempts, want %d", i, got, i+1)
		}
	}
	c, err := l.get(nil)
	if err != nil || c == nil {
		t.Fatalf("get after failures: %v", err)
	}
	if n := l.failedAttempts(); n != 0 {
		t.Fatalf("%d failed attempts after success, want 0 (reset-on-success)", n)
	}
	if st := l.stats(); st != (LinkHealth{Dials: 1, FailedDials: 3}) {
		t.Fatalf("stats %+v, want 1 dial, 3 failed, no fault, no error", st)
	}
	if len(sd.times) != 4 {
		t.Fatalf("%d dial attempts, want 4", len(sd.times))
	}
	// Lower bounds only: upper bounds would flake under scheduler noise.
	for i, wantGap := range []time.Duration{min, 2 * min} {
		gap := sd.times[i+2].Sub(sd.times[i+1])
		if lo := time.Duration(float64(wantGap) * (1 - transport.BackoffJitter)); gap < lo {
			t.Fatalf("gap %d = %v, want ≥ %v (backoff not applied)", i+1, gap, lo)
		}
	}

	// After a success, the schedule restarts from Min, not where it left
	// off: kill the conn, fail once, and check the next wait is ~Min.
	sd.mu.Lock()
	sd.failures = 1
	sd.mu.Unlock()
	c.Close()
	start := time.Now()
	if _, err := l.get(nil); err == nil {
		t.Fatal("get succeeded with dial scripted to fail")
	}
	if _, err := l.get(nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 4*min {
		t.Fatalf("post-success retry waited %v; schedule did not reset to Min=%v", elapsed, min)
	}
	if st := l.stats(); st.Dials != 2 || st.FailedDials != 4 || st.Faults != 1 {
		t.Fatalf("stats %+v, want 2 dials, 4 failed, 1 fault", st)
	}
}

// TestLinkSingleFlight: concurrent gets share one dial, both for the first
// connect and for the re-dial that replaces a dead conn, and the dead conn
// counts as one fault however many gets find it.
func TestLinkSingleFlight(t *testing.T) {
	var dials atomic.Int32
	slow := make(chan struct{})
	l := testLink(t, func() (transport.Conn, error) {
		dials.Add(1)
		<-slow
		a, _ := transport.Pipe("a", "b")
		return a, nil
	}, transport.Backoff{Min: time.Millisecond})

	round := func() *rpc.Conn {
		slow = make(chan struct{})
		type res struct {
			c   *rpc.Conn
			err error
		}
		results := make(chan res, 4)
		for i := 0; i < 4; i++ {
			go func() {
				c, err := l.get(nil)
				results <- res{c, err}
			}()
		}
		time.Sleep(20 * time.Millisecond) // let all four join the dial
		close(slow)
		first := <-results
		if first.err != nil {
			t.Fatal(first.err)
		}
		for i := 0; i < 3; i++ {
			if got := <-results; got.err != nil || got.c != first.c {
				t.Fatalf("waiter got %+v, dialer got %+v", got, first)
			}
		}
		return first.c
	}

	first := round()
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for 4 concurrent gets, want 1 (single flight)", n)
	}
	first.Close()
	second := round()
	if second == first {
		t.Fatal("get handed out the dead conn")
	}
	if n, st := dials.Load(), l.stats(); n != 2 || st.Dials != 2 || st.Faults != 1 {
		t.Fatalf("%d dials, stats %+v; want 2 dials and 1 fault", n, st)
	}
}

func TestLinkGiveupDuringBackoff(t *testing.T) {
	sd := &scriptedDial{failures: 100}
	l := testLink(t, sd.dial, transport.Backoff{Min: 10 * time.Second}) // painful wait
	if _, err := l.get(nil); err == nil {
		t.Fatal("first get succeeded")
	}
	giveup := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := l.get(giveup)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(giveup)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("get succeeded after giveup")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("get ignored giveup and slept out the backoff")
	}
}

func TestLinkClosedGetFails(t *testing.T) {
	sd := &scriptedDial{}
	l := testLink(t, sd.dial, transport.Backoff{})
	c, err := l.get(nil)
	if err != nil {
		t.Fatal(err)
	}
	l.close()
	select {
	case <-c.Done():
	default:
		t.Fatal("conn alive after close")
	}
	if _, err := l.get(nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("get on closed link: %v, want ErrClosed", err)
	}
}

// TestLinkRedialsKnownDeadConnFirst: a client whose link died while idle,
// with its memo server already back, re-dials before its next request
// instead of spending that request (or a retry of it) on the dead conn.
func TestLinkRedialsKnownDeadConnFirst(t *testing.T) {
	for _, retries := range []int{0, 1} {
		t.Run(fmt.Sprintf("retries=%d", retries), func(t *testing.T) {
			tn := bootNet(t, twoHostADF, Config{})
			c, err := DialClientResilient(tn.sim.DialFrom, "a", tn.file.App, rpc.Policy{},
				rpc.Resilience{Heartbeat: 50 * time.Millisecond, Redial: transport.Backoff{Min: time.Millisecond}, Retries: retries})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if resp, err := c.Do(req(wire.OpPut, 0, symbol.K(1), []byte("m")), nil); err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("put: %+v %v", resp, err)
			}
			old, err := c.link.get(nil)
			if err != nil {
				t.Fatal(err)
			}

			tn.nodes["a"].Close()
			na := NewWithNetwork("a", tn.sim, Config{})
			if err := na.Start(); err != nil {
				t.Fatal(err)
			}
			tn.nodes["a"] = na
			select {
			case <-old.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("old conn never died")
			}

			if err := c.Ping(); err != nil {
				t.Fatalf("ping after restart: %v", err)
			}
			if st := c.Stats(); st.Retried != 0 || st.Faults != 1 || st.Dials != 2 {
				t.Fatalf("stats %+v, want 0 retried, 1 fault, 2 dials", st)
			}
		})
	}
}

// TestDialFailureWordedOnce: a failed dial is worded where it happens, and
// nowhere above. A Client whose memo server has gone returns the transport's
// error under the one dial wording; a forward to a peer with no listener
// answers StatusErr naming that peer and the failed dial — the same error
// the forwarding node's node_link_error serves for that peer.
func TestDialFailureWordedOnce(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")

	// a has never dialed b, so the forward's one attempt is a fresh dial.
	tn.nodes["b"].Close()
	q := req(wire.OpPut, 1, symbol.K(1), []byte("m"))
	q.App = tn.file.App
	resp := tn.nodes["a"].Dispatch(q, never)
	if resp.Status != wire.StatusErr || !strings.Contains(resp.Err, "dial b: ") ||
		strings.Count(resp.Err, "dial") != 1 || !strings.Contains(resp.Err, transport.ErrNoListener.Error()) {
		t.Fatalf("forward to a dead peer: %+v, want one dial b wording over %q", resp, transport.ErrNoListener)
	}
	// a's exposition names the same failure, against the same peer.
	named := false
	for _, smp := range nodeExposition(tn.nodes["a"]) {
		if smp.Name == "node_link_error" && smp.Label("peer") == "b" {
			named = smp.Value == 1 && strings.Contains(resp.Err, smp.Label("error")) && strings.HasPrefix(smp.Label("error"), "dial b: ")
		}
	}
	if !named {
		t.Fatalf("a's node_link_error{peer=\"b\"} does not name the forward's %q:\n%+v", resp.Err, nodeExposition(tn.nodes["a"]))
	}

	old, err := c.link.get(nil)
	if err != nil {
		t.Fatal(err)
	}
	tn.nodes["a"].Close()
	select {
	case <-old.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client conn never died")
	}
	err = c.Ping()
	if !errors.Is(err, transport.ErrNoListener) || strings.Count(err.Error(), "dial") != 1 {
		t.Fatalf("ping with the memo server gone: %v, want one dial wording over %v", err, transport.ErrNoListener)
	}
}
