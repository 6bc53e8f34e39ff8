package folder

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newTestServer(t *testing.T, cache threadcache.Config) *Server {
	t.Helper()
	s := NewServer(0, "testhost", NewStore(), cache)
	t.Cleanup(s.Close)
	return s
}

func TestHandleOps(t *testing.T) {
	s := newTestServer(t, threadcache.Config{})
	k := symbol.K(1)
	k2 := symbol.K(2)

	if r := s.Handle(&wire.Request{Op: wire.OpPing}, never); r.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("v")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetCopy, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get_copy: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGet, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k}, never); r.Status != wire.StatusEmpty {
		t.Fatalf("get_skip on empty: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPutDelayed, Key: k, Key2: k2, Payload: []byte("d")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put_delayed: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: nil}, never); r.Status != wire.StatusOK {
		t.Fatalf("trigger put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k2}, never); r.Status != wire.StatusOK || string(r.Payload) != "d" {
		t.Fatalf("released value: %+v", r)
	}
	// Alt and watch argument validation.
	if r := s.Handle(&wire.Request{Op: wire.OpAltTake}, never); r.Status != wire.StatusErr {
		t.Fatalf("alt with no keys: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpWatch}, never); r.Status != wire.StatusErr {
		t.Fatalf("watch with no keys: %+v", r)
	}
	// Register is a memo-server op, not a folder-server op.
	if r := s.Handle(&wire.Request{Op: wire.OpRegister}, never); r.Status != wire.StatusErr {
		t.Fatalf("register: %+v", r)
	}
}

func TestHandleCanceledGetReportsError(t *testing.T) {
	s := newTestServer(t, threadcache.Config{})
	cancel := make(chan struct{})
	got := make(chan *wire.Response, 1)
	go func() {
		got <- s.Handle(&wire.Request{Op: wire.OpGet, Key: symbol.K(5)}, cancel)
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case r := <-got:
		if r.Status != wire.StatusErr {
			t.Fatalf("canceled get: %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
}

// TestServeOverTCP drives the standalone wire-protocol server (the
// cmd/folderserverd deployment) over a real TCP socket.
func TestServeOverTCP(t *testing.T) {
	s := newTestServer(t, threadcache.Config{})
	l, err := transport.NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go s.Serve(l)

	conn, err := transport.NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux(conn, 4096)
	go mux.Run()
	t.Cleanup(func() { mux.Close() })

	do := func(c *rpc.Conn, q *wire.Request) *wire.Response {
		t.Helper()
		resp, err := c.Call(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	c := rpc.NewConn(mux.Channel(1), rpc.Policy{})
	t.Cleanup(func() { c.Close() })
	k := symbol.K(3, 1)
	if r := do(c, &wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("tcp")}); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := do(c, &wire.Request{Op: wire.OpGet, Key: k}); r.Status != wire.StatusOK || string(r.Payload) != "tcp" {
		t.Fatalf("get: %+v", r)
	}

	// A malformed entry inside a well-formed batch gets an error response,
	// not a dropped channel: the next entry on the same channel is served.
	raw := mux.Channel(100)
	entry := func(id uint64, msg []byte) wire.Status {
		t.Helper()
		if err := raw.Send(wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{{ID: id, Msg: msg}})); err != nil {
			t.Fatal(err)
		}
		buf, err := raw.Recv()
		if err != nil {
			t.Fatal(err)
		}
		kind, entries, err := wire.DecodeBatch(buf)
		if err != nil || kind != wire.BatchResponse || len(entries) != 1 || entries[0].ID != id {
			t.Fatalf("response batch: %v %+v %v", kind, entries, err)
		}
		resp, err := wire.DecodeResponse(entries[0].Msg)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Status
	}
	if st := entry(9, []byte{0xFF, 0xFF}); st != wire.StatusErr {
		t.Fatalf("malformed entry status %v, want an error response", st)
	}
	if st := entry(10, wire.EncodeRequest(&wire.Request{Op: wire.OpPing})); st != wire.StatusOK {
		t.Fatalf("ping after a malformed entry: status %v (channel dropped?)", st)
	}

	// Concurrent channels against one server.
	var wg sync.WaitGroup
	for i := 2; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rpc.NewConn(mux.Channel(uint64(i)), rpc.Policy{})
			defer c.Close()
			key := symbol.K(symbol.Symbol(i))
			for j := 0; j < 20; j++ {
				if _, err := c.Call(&wire.Request{Op: wire.OpPut, Key: key, Payload: []byte{byte(j)}}, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Call(&wire.Request{Op: wire.OpGet, Key: key}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if s.Store().MemoCount() != 0 {
		t.Fatalf("memos left: %d", s.Store().MemoCount())
	}
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}
