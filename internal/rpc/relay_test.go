package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// countingCompletion records every Complete it receives.
type countingCompletion struct {
	calls atomic.Int32
	err   atomic.Value // error
	done  chan struct{}
}

func newCounting() *countingCompletion { return &countingCompletion{done: make(chan struct{}, 8)} }

func (c *countingCompletion) Complete(_ *wire.Response, _ []byte, err error) {
	c.calls.Add(1)
	if err != nil {
		c.err.Store(err)
	}
	c.done <- struct{}{}
}

// TestGoCompletesOnceOnLinkDeath: calls issued with Go complete exactly once
// when the transport dies under them, on the failing goroutine, with the
// *LinkError a blocking Call would return; a Go on the dead conn fails at
// once and never runs its completion.
func TestGoCompletesOnceOnLinkDeath(t *testing.T) {
	c, raw := servedPair(t, blockForever, Resilience{}, nil)
	const n = 16
	comps := make([]*countingCompletion, n)
	for i := range comps {
		comps[i] = newCounting()
		if _, err := c.Go(&wire.Request{Op: wire.OpGet}, comps[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Every request reaches the wire before the transport dies.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		sent := 0
		for _, oc := range c.pending {
			if oc.sent {
				sent++
			}
		}
		c.mu.Unlock()
		if sent == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls sent", sent, n)
		}
		time.Sleep(time.Millisecond)
	}
	raw.Close()
	for i, comp := range comps {
		select {
		case <-comp.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d never completed after its link died", i)
		}
		var le *LinkError
		if err, _ := comp.err.Load().(error); !errors.As(err, &le) || !le.Sent {
			t.Fatalf("call %d completed with %v, want a *LinkError with Sent", i, err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	for i, comp := range comps {
		if got := comp.calls.Load(); got != 1 {
			t.Fatalf("call %d completed %d times, want once", i, got)
		}
	}
	late := newCounting()
	if _, err := c.Go(&wire.Request{Op: wire.OpGet}, late); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Go on a dead conn: %v, want ErrLinkDown", err)
	}
	if late.calls.Load() != 0 {
		t.Fatal("a refused Go ran its completion")
	}
}

// relayPending is the front server's completion for a relayed request: it
// answers from the back conn's receive loop with the message as it stands,
// and on failure answers on a thread with the error.
type relayPending struct{ p *Pending }

func (r relayPending) Complete(_ *wire.Response, msg []byte, err error) {
	if err != nil {
		r.p.Run(func(*Pending) *wire.Response { return wire.Errf("relay: %v", err) }, nil)
		return
	}
	r.p.AnswerEncoded(msg)
}

// TestServeRoutedRelay drives a front server whose router relays every
// request onto a Conn to a back server: the back server's responses reach
// the client unchanged, a client cancel becomes a cancel of the relayed
// call, and the back link's death is answered through Run.
func TestServeRoutedRelay(t *testing.T) {
	parked := make(chan struct{}, 1)
	back, backRaw := servedPair(t, func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		if q.Op != wire.OpGet {
			return echoHandler(q, cancel)
		}
		parked <- struct{}{}
		<-cancel
		return &wire.Response{Status: wire.StatusCanceled}
	}, Resilience{}, nil)

	ip := transport.NewInProc()
	l, err := ip.Listen("front/rpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = ServeRouted(conn, func(p *Pending) {
			if err := p.Relay(back, relayPending{p}); err != nil {
				p.Run(func(*Pending) *wire.Response { return wire.Errf("relay: %v", err) }, nil)
			}
		}, nil)
		conn.Close()
	}()
	raw, err := ip.Dial("front/rpc")
	if err != nil {
		t.Fatal(err)
	}
	c := clientConn(t, raw, Resilience{})

	resp, err := c.Call(&wire.Request{Op: wire.OpPut, Payload: []byte("through")}, nil)
	if err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != "through" {
		t.Fatalf("relayed call: %+v %v", resp, err)
	}

	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, cancel)
		errc <- err
	}()
	<-parked
	close(cancel)
	if err := <-errc; err != wire.ErrCanceled {
		t.Fatalf("canceled relayed call: %v, want wire.ErrCanceled", err)
	}

	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
		errc <- err
	}()
	<-parked
	backRaw.Close()
	resp, err = c.Call(&wire.Request{Op: wire.OpPut}, nil)
	if err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("call relayed on a dead back link: %+v %v, want an error response", resp, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("call parked when the back link died: %v, want an error response", err)
	}
}
