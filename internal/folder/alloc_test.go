package folder

import (
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/wire"
)

// Allocation budgets for the request path behind Handle, gated like the wire
// and rpc budgets (DESIGN §8): a tokened Put→Get round may allocate what is
// semantics — the deposit's private copy, the get's response, and the folder's
// name when the folder springs into existence — and nothing else.

// handleRounder drives tokened Put→Get rounds through one server with reused
// request structs, the way a memo server's pooled tasks do.
type handleRounder struct {
	srv      *Server
	put, get wire.Request
	tok      uint64
}

func newHandleRounder(srv *Server, key symbol.Key) *handleRounder {
	return &handleRounder{
		srv: srv,
		put: wire.Request{Op: wire.OpPut, App: "budget", Key: key, Payload: []byte("a 64-byte memo payload, the size the job jar workload moves ....")},
		get: wire.Request{Op: wire.OpGet, App: "budget", Key: key},
		tok: 1 << 40,
	}
}

func (h *handleRounder) doPut(t testing.TB) {
	h.tok++
	h.put.Token = h.tok
	if r := h.srv.Handle(&h.put, nil); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
}

func (h *handleRounder) doGet(t testing.TB) {
	h.tok++
	h.get.Token = h.tok
	if r := h.srv.Handle(&h.get, nil); r.Status != wire.StatusOK || len(r.Payload) != len(h.put.Payload) {
		t.Errorf("get: %+v", r)
	}
}

func TestHandleRoundAllocBudget(t *testing.T) {
	key := symbol.K(7, 1, 2)

	t.Run("hit", func(t *testing.T) {
		h := newHandleRounder(NewServer(0, "a", NewStore(), threadcache.Config{}), key)
		got := testing.AllocsPerRun(2000, func() { h.doPut(t); h.doGet(t) })
		t.Logf("hit round: %.1f allocations", got)
		if got > 3 {
			t.Fatalf("tokened Put→Get hit round allocates %.1f times, budget 3", got)
		}
	})

	t.Run("park then put", func(t *testing.T) {
		// Every get arrives first and parks; the put that follows wakes it.
		store := NewStore()
		h := newHandleRounder(NewServer(0, "a", store, threadcache.Config{}), key)
		goGet, gotIt := make(chan struct{}), make(chan struct{})
		defer close(goGet)
		go func() {
			for range goGet {
				h.doGet(t)
				gotIt <- struct{}{}
			}
		}()
		got := testing.AllocsPerRun(2000, func() {
			goGet <- struct{}{}
			for store.occupancy(nil).waiters == 0 {
				runtime.Gosched()
			}
			h.doPut(t)
			<-gotIt
		})
		t.Logf("park-then-Put round: %.1f allocations", got)
		if got > 4 {
			t.Fatalf("park-then-Put round allocates %.1f times, budget 4", got)
		}
	})

	t.Run("durable hit", func(t *testing.T) {
		srv, err := OpenServer(0, "a", t.TempDir(), durable.Config{Sync: durable.SyncNever, SnapshotEvery: -1}, threadcache.Config{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := newHandleRounder(srv, key)
		got := testing.AllocsPerRun(2000, func() { h.doPut(t); h.doGet(t) })
		t.Logf("durable hit round: %.1f allocations", got)
		if got > 3 {
			t.Fatalf("durable tokened Put→Get hit round allocates %.1f times, budget 3", got)
		}
	})
}

// BenchmarkHandleRound is the -benchmem smoke for the same round.
func BenchmarkHandleRound(b *testing.B) {
	h := newHandleRounder(NewServer(0, "a", NewStore(), threadcache.Config{}), symbol.K(7, 1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.doPut(b)
		h.doGet(b)
	}
}
