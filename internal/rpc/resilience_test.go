package rpc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// clientConn wraps a dialed transport conn in a resilient Conn, with
// cleanup registered.
func clientConn(t *testing.T, raw transport.Conn, res Resilience) *Conn {
	t.Helper()
	c := NewConnResilient(raw, Policy{}, res)
	t.Cleanup(func() { c.Close() })
	return c
}

// serveTCPIdle listens on a loopback TCP socket with the given idle
// timeout, serves h, and returns the transport and bound address.
func serveTCPIdle(t *testing.T, idle time.Duration, h Handler) (*transport.TCP, string) {
	t.Helper()
	tcp := &transport.TCP{IdleTimeout: idle}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serveLoop(l, h, nil, Policy{})
	return tcp, l.Addr()
}

// servedPair dials a raw in-process connection, serves h on the accept
// side, and returns the client Conn plus the underlying transport conn so
// tests can kill or intercept the wire.
func servedPair(t *testing.T, h Handler, res Resilience, wrapClient func(transport.Conn) transport.Conn) (*Conn, transport.Conn) {
	t.Helper()
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serveLoop(l, h, nil, Policy{})
	raw, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := raw
	if wrapClient != nil {
		wrapped = wrapClient(raw)
	}
	return clientConn(t, wrapped, res), raw
}

// blockForever parks every request on its cancel channel — the worst case
// for link death: responses that will never come.
func blockForever(q *wire.Request, cancel <-chan struct{}) *wire.Response {
	<-cancel
	return wire.Errf("canceled")
}

// TestCallsFailFastWhenTransportDiesMidCall is the latent-bug regression:
// calls in flight when the underlying transport dies must all return
// promptly with ErrLinkDown, not hang until some outer timeout. The requests
// were handed to the wire, so each LinkError must report Sent.
func TestCallsFailFastWhenTransportDiesMidCall(t *testing.T) {
	c, raw := servedPair(t, blockForever, Resilience{}, nil)
	const callers = 8
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let every request reach the server
	raw.Close()                       // the link dies between send and response
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrLinkDown) {
				t.Fatalf("call %d: %v, want ErrLinkDown", i, err)
			}
			var le *LinkError
			if !errors.As(err, &le) || !le.Sent {
				t.Fatalf("call %d: %v, want *LinkError with Sent", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("call %d still blocked after the transport died", i)
		}
	}
	// New calls on the dead conn fail fast too — and report not-sent, so
	// any operation may be safely retried on a fresh link.
	_, err := c.Call(&wire.Request{Op: wire.OpPut}, nil)
	var le *LinkError
	if !errors.As(err, &le) || le.Sent {
		t.Fatalf("call on dead conn: %v, want *LinkError without Sent", err)
	}
}

// stuckConn lets a test wedge the wire: while stuck, Send blocks (like a
// zero-window TCP peer) until released.
type stuckConn struct {
	transport.Conn
	mu      sync.Mutex
	stuck   bool
	release chan struct{}
}

func (c *stuckConn) stick() {
	c.mu.Lock()
	c.stuck = true
	c.release = make(chan struct{})
	c.mu.Unlock()
}

func (c *stuckConn) Send(msg []byte) error {
	c.mu.Lock()
	stuck, release := c.stuck, c.release
	c.mu.Unlock()
	if stuck {
		<-release
		return transport.ErrClosed
	}
	return c.Conn.Send(msg)
}

// TestQueuedCallsReportNotSent: when the link dies while a request is still
// queued behind a wedged wire, its LinkError must NOT claim Sent — that
// guarantee is what makes blind retry of non-idempotent ops safe.
func TestQueuedCallsReportNotSent(t *testing.T) {
	var sc *stuckConn
	c, raw := servedPair(t, echoHandler, Resilience{}, func(inner transport.Conn) transport.Conn {
		sc = &stuckConn{Conn: inner}
		return sc
	})
	// Prove the wire works, then wedge it.
	if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
		t.Fatal(err)
	}
	sc.stick()
	errs := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpPut}, nil)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // the frame is stuck in Send or queued
	raw.Close()                       // kill the transport under it
	close(sc.release)
	select {
	case err := <-errs:
		var le *LinkError
		if !errors.As(err, &le) {
			t.Fatalf("queued call: %v, want *LinkError", err)
		}
		// The entry may have reached the wedged Send (marked sent,
		// conservatively) or still sit queued (not sent); both are
		// ErrLinkDown. What matters is that it returned at all and that a
		// call queued after the death below is definitively not-sent.
	case <-time.After(2 * time.Second):
		t.Fatal("queued call hung after transport death")
	}
	_, err := c.Call(&wire.Request{Op: wire.OpPut}, nil)
	var le *LinkError
	if !errors.As(err, &le) || le.Sent {
		t.Fatalf("post-death call: %v, want *LinkError without Sent", err)
	}
}

// dropConn silently discards all traffic (both directions) while dropping
// is on — a blackholed link, invisible without heartbeats.
type dropConn struct {
	transport.Conn
	drop atomic.Bool
}

func (c *dropConn) Send(msg []byte) error {
	if c.drop.Load() {
		return nil
	}
	return c.Conn.Send(msg)
}

// TestHeartbeatDetectsBlackholedPeer: with heartbeats armed, a peer whose
// traffic silently vanishes is declared dead within ~2× the interval, and
// blocked calls return ErrLinkDown instead of waiting forever.
func TestHeartbeatDetectsBlackholedPeer(t *testing.T) {
	const hb = 60 * time.Millisecond
	var dc *dropConn
	c, _ := servedPair(t, blockForever, Resilience{Heartbeat: hb}, func(inner transport.Conn) transport.Conn {
		dc = &dropConn{Conn: inner}
		return dc
	})
	errs := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
		errs <- err
	}()
	time.Sleep(2 * hb) // healthy for a while: heartbeats keep it alive
	select {
	case err := <-errs:
		t.Fatalf("call failed on a healthy link: %v", err)
	default:
	}
	dc.drop.Store(true)
	start := time.Now()
	select {
	case err := <-errs:
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("blocked call got %v, want ErrLinkDown", err)
		}
		// Threshold is 2×hb; allow scheduler slack but catch a broken
		// detector that needs an outer timeout.
		if elapsed := time.Since(start); elapsed > 6*hb {
			t.Fatalf("dead peer detected after %v, want ~2×%v", elapsed, hb)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blackholed peer never detected")
	}
}

// TestHeartbeatKeepsBlockedCallAliveUnderIdleTimeout is the §6 knob
// interaction: with app-level heartbeats, the TCP idle timeout can stay
// armed and a legitimately-silent blocking wait still survives many idle
// windows.
func TestHeartbeatKeepsBlockedCallAliveUnderIdleTimeout(t *testing.T) {
	const (
		idle = 150 * time.Millisecond
		hb   = 50 * time.Millisecond
		park = 10 * idle // survive ≥ 10× the idle timeout
	)
	release := make(chan struct{})
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		select {
		case <-release:
			return wire.OK()
		case <-cancel:
			return wire.Errf("canceled")
		}
	}
	tcp, addr := serveTCPIdle(t, idle, h)
	raw, err := tcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := clientConn(t, raw, Resilience{Heartbeat: hb})

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blocked call died during the silent window: %v (idle timeout fired through the heartbeats?)", err)
	case <-time.After(park):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked call failed after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked call never completed")
	}
}

// TestHeartbeatFeedsPeerIdleTimerWhileReceiving covers the inverse silence:
// a client that pipelined its requests up front and now only receives — a
// backlog of blocking responses trickling in — sends nothing, so only
// probes keep the server's read deadline fed. Without send-idle probing
// the server kills the connection mid-stream.
func TestHeartbeatFeedsPeerIdleTimerWhileReceiving(t *testing.T) {
	const (
		idle  = 250 * time.Millisecond
		hb    = 80 * time.Millisecond
		calls = 6
	)
	releases := make(chan struct{})
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		select {
		case <-releases:
			return wire.OK()
		case <-cancel:
			return wire.Errf("canceled")
		}
	}
	tcp, addr := serveTCPIdle(t, idle, h)
	raw, err := tcp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c := clientConn(t, raw, Resilience{Heartbeat: hb})

	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
			errs <- err
		}()
	}
	// Release one response roughly every half idle window: the stream
	// spans ~3 idle windows with the client send-silent throughout.
	for i := 0; i < calls; i++ {
		time.Sleep(idle / 2)
		releases <- struct{}{}
	}
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("call %d failed mid-stream: %v (server idle timeout fired through the probes?)", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("calls never completed")
		}
	}
}
