package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// serveLoop runs Serve(h) on every conn l accepts and closes each one when
// its Serve returns, as memoserver.Node's accept task does.
func serveLoop(l transport.Listener, h Handler, submit SubmitFunc, pol Policy) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			_ = Serve(conn, h, submit, pol)
			conn.Close()
		}()
	}
}

// pipe builds a connected client/server pair over the in-process transport,
// with the server side running Serve(h).
func pipe(t *testing.T, h Handler, submit SubmitFunc, pol Policy) *Conn {
	t.Helper()
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serveLoop(l, h, submit, pol)
	conn, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(conn, pol)
	t.Cleanup(func() { c.Close() })
	return c
}

// echoHandler returns the request payload back.
func echoHandler(q *wire.Request, _ <-chan struct{}) *wire.Response {
	return &wire.Response{Status: wire.StatusOK, Key: q.Key, Payload: q.Payload}
}

func TestCallRoundTrip(t *testing.T) {
	c := pipe(t, echoHandler, nil, Policy{})
	for i := 0; i < 10; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		resp, err := c.Call(&wire.Request{Op: wire.OpPut, Key: symbol.K(7), Payload: payload}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || string(resp.Payload) != string(payload) {
			t.Fatalf("resp %d: %+v", i, resp)
		}
	}
}

func TestConcurrentCallsPipelineOnOneChannel(t *testing.T) {
	var inflight, maxInflight atomic.Int64
	h := func(q *wire.Request, _ <-chan struct{}) *wire.Response {
		n := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if n <= m || maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return echoHandler(q, nil)
	}
	c := pipe(t, h, nil, Policy{})
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte{byte(i)}}, nil)
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
				errs <- fmt.Errorf("caller %d got %v", i, resp.Payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := maxInflight.Load(); m < 2 {
		t.Fatalf("requests never overlapped on the server (max in-flight %d); pipelining broken", m)
	}
}

// slowConn delays every Send, emulating a link with per-message cost, and
// counts messages. Batching exists to amortize exactly this cost.
type slowConn struct {
	transport.Conn
	delay time.Duration
	sent  *atomic.Int64
}

func (c *slowConn) Send(msg []byte) error {
	time.Sleep(c.delay)
	c.sent.Add(1)
	return c.Conn.Send(msg)
}

// TestBatchingCoalesces verifies concurrent calls share frames on a busy
// wire: while one frame is in flight, companion requests accumulate and
// ship together, so far fewer than 2N messages cross the transport for N
// concurrent calls.
func TestBatchingCoalesces(t *testing.T) {
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const callers = 32
	const wireDelay = time.Millisecond
	var sent atomic.Int64
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = Serve(&slowConn{Conn: conn, delay: wireDelay, sent: &sent}, echoHandler, nil, Policy{})
	}()
	conn, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(&slowConn{Conn: conn, delay: wireDelay, sent: &sent}, Policy{})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Unbatched, callers requests + callers responses would cross as
	// 2*callers messages.
	if n := sent.Load(); n >= 2*callers {
		t.Fatalf("no coalescing: %d messages for %d calls", n, callers)
	} else {
		t.Logf("%d transport messages for %d concurrent calls", n, callers)
	}
}

func TestOutOfOrderCompletion(t *testing.T) {
	// First call blocks until the second completes; with pipelining the
	// second response overtakes the first.
	unblock := make(chan struct{})
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		if q.Op == wire.OpGet {
			select {
			case <-unblock:
			case <-cancel:
				return wire.Errf("canceled")
			}
		}
		return echoHandler(q, nil)
	}
	c := pipe(t, h, nil, Policy{})

	slow := make(chan *wire.Response, 1)
	go func() {
		resp, err := c.Call(&wire.Request{Op: wire.OpGet, Payload: []byte("slow")}, nil)
		if err == nil {
			slow <- resp
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the slow call reach the server

	resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte("fast")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "fast" {
		t.Fatalf("fast call got %q", resp.Payload)
	}
	select {
	case <-slow:
		t.Fatal("slow call completed before its unblock")
	default:
	}
	close(unblock)
	select {
	case resp := <-slow:
		if string(resp.Payload) != "slow" {
			t.Fatalf("slow call got %q", resp.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slow call never completed")
	}
}

// TestCancelUnblocksServer: closing cancel reaches the handler, and Call
// returns what the handler then answers — ErrCanceled for StatusCanceled
// (nothing consumed), the value itself when the cancel lost the race.
func TestCancelUnblocksServer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		answer  *wire.Response
		wantErr error
	}{
		{"canceled", &wire.Response{Status: wire.StatusCanceled}, ErrCanceled},
		{"value-wins", &wire.Response{Status: wire.StatusOK, Payload: []byte("taken")}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			started := make(chan struct{}, 1)
			h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
				started <- struct{}{}
				select {
				case <-cancel:
					return tc.answer
				case <-time.After(5 * time.Second):
					return wire.Errf("cancel never propagated")
				}
			}
			c := pipe(t, h, nil, Policy{})

			cancel := make(chan struct{})
			type result struct {
				resp *wire.Response
				err  error
			}
			done := make(chan result, 1)
			go func() {
				resp, err := c.Call(&wire.Request{Op: wire.OpGet}, cancel)
				done <- result{resp, err}
			}()
			<-started
			close(cancel)
			r := <-done
			if r.err != tc.wantErr {
				t.Fatalf("Call returned %v, want %v", r.err, tc.wantErr)
			}
			if tc.wantErr == nil && string(r.resp.Payload) != "taken" {
				t.Fatalf("Call returned %+v, want the value the handler took", r.resp)
			}
			// The connection remains alive after a cancel.
			if c.Err() != nil {
				t.Fatalf("connection died after cancel: %v", c.Err())
			}
		})
	}
}

// TestNonBatchFrameRejected is the protocol's entry check: a frame that does
// not start with the batch magic — a bare encoded request, garbage, or a
// valid batch behind the mux packet header a previous-version peer sends —
// makes Serve return an error without invoking the handler, and once the
// caller closes the conn (as memoserver.Node does) the peer's Recv fails
// rather than hangs.
func TestNonBatchFrameRejected(t *testing.T) {
	ping := wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{{ID: 1, Msg: wire.EncodeRequest(&wire.Request{Op: wire.OpPing})}})
	frames := map[string][]byte{
		"single-frame request": wire.EncodeRequest(&wire.Request{Op: wire.OpPing, Payload: []byte{1}}),
		"garbage":              {0xFF, 0xFF},
		"empty":                {},
		// Channel 1, message 0, no flags: how the previous version framed
		// every batch.
		"mux-framed batch": append([]byte{1, 0, 0x00}, ping...),
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			ip := transport.NewInProc()
			l, err := ip.Listen("srv/rpc")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var handled atomic.Int32
			served := make(chan error, 1)
			go func() {
				conn, err := l.Accept()
				if err != nil {
					served <- nil
					return
				}
				served <- Serve(conn, func(q *wire.Request, c <-chan struct{}) *wire.Response {
					handled.Add(1)
					return echoHandler(q, c)
				}, nil, Policy{})
				conn.Close()
			}()
			ch, err := ip.Dial("srv/rpc")
			if err != nil {
				t.Fatal(err)
			}
			defer ch.Close()
			if err := ch.Send(frame); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-served:
				if err == nil {
					t.Fatal("Serve accepted a non-batch frame")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve kept serving after a non-batch frame")
			}
			recvd := make(chan error, 1)
			go func() {
				_, err := ch.Recv()
				recvd <- err
			}()
			select {
			case err := <-recvd:
				if err == nil {
					t.Fatal("rejected peer got an answer; want its Recv to fail")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("rejected peer hangs in Recv")
			}
			if n := handled.Load(); n != 0 {
				t.Fatalf("handler ran %d times on a rejected frame", n)
			}
		})
	}
}

func TestMalformedBatchEntryGetsErrorResponse(t *testing.T) {
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		_ = Serve(conn, echoHandler, nil, Policy{})
	}()
	ch, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	frame := wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{
		{ID: 9, Msg: []byte{0xFF, 0xFF}},
		{ID: 10, Msg: wire.EncodeRequest(&wire.Request{Op: wire.OpPing})},
	})
	if err := ch.Send(frame); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]wire.Status{}
	for len(got) < 2 {
		buf, err := ch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		kind, entries, err := wire.DecodeBatch(buf)
		if err != nil || kind != wire.BatchResponse {
			t.Fatalf("%v %v", kind, err)
		}
		for _, e := range entries {
			resp, err := wire.DecodeResponse(e.Msg)
			if err != nil {
				t.Fatal(err)
			}
			got[e.ID] = resp.Status
		}
	}
	if got[9] != wire.StatusErr || got[10] != wire.StatusOK {
		t.Fatalf("statuses: %v", got)
	}
}

func TestConnFailsPendingOnTeardown(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		select {
		case <-block:
		case <-cancel:
		}
		return wire.Errf("late")
	}
	c := pipe(t, h, nil, Policy{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after Close")
	}
	if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err == nil {
		t.Fatal("call on closed conn succeeded")
	}
}

func TestSubmitThroughThreadCache(t *testing.T) {
	var submitted atomic.Int64
	submit := func(fn func(any), arg any) error {
		submitted.Add(1)
		go fn(arg)
		return nil
	}
	c := pipe(t, echoHandler, submit, Policy{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if submitted.Load() != n {
		t.Fatalf("submitted %d tasks, want %d", submitted.Load(), n)
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxCount != DefaultMaxCount || p.MaxBytes != DefaultMaxBytes {
		t.Fatalf("defaults: %+v", p)
	}
	u := Policy{MaxCount: 1}.withDefaults()
	if u.MaxCount != 1 {
		t.Fatalf("MaxCount 1 overridden: %+v", u)
	}
}

// TestCallRefusesOversizedRequest: nothing fragments a frame, so a request
// message past MaxMessage fails at once with transport.ErrTooLarge — not a
// LinkError, so nothing retries it — and the connection carries on.
func TestCallRefusesOversizedRequest(t *testing.T) {
	c := pipe(t, echoHandler, nil, Policy{})
	_, err := c.Call(&wire.Request{Op: wire.OpPut, Payload: make([]byte, MaxMessage)}, nil)
	var le *LinkError
	if !errors.Is(err, transport.ErrTooLarge) || errors.As(err, &le) {
		t.Fatalf("oversized call: %v, want transport.ErrTooLarge and no LinkError", err)
	}
	if resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte("after")}, nil); err != nil || string(resp.Payload) != "after" {
		t.Fatalf("call after the refusal: %+v %v", resp, err)
	}
}
