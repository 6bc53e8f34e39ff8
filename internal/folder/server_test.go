package folder

import (
	"testing"
	"time"

	"repro/internal/symbol"
	"repro/internal/threadcache"
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

// TestHandleCanceledGetReportsError: a get canceled while parked answers
// StatusCanceled, not an error string a caller would have to match.
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
		if r.Status != wire.StatusCanceled {
			t.Fatalf("canceled get: %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
}
