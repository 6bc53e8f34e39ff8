package folder

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/wire"
)

// answerer is a test Answerer: it keeps the cancel hook and counts answers.
type answerer struct {
	mu      sync.Mutex
	h       wire.Canceler
	id      uint64
	answers int
	resp    *wire.Response
}

func (a *answerer) Hold(h wire.Canceler, id uint64) { a.h, a.id = h, id }

func (a *answerer) Answer(resp *wire.Response) {
	a.mu.Lock()
	a.answers++
	a.resp = resp
	a.mu.Unlock()
}

func (a *answerer) outcome() (int, *wire.Response) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.answers, a.resp
}

// serveParked starts q with Serve and requires it to park.
func serveParked(t *testing.T, srv *Server, q *wire.Request) *answerer {
	t.Helper()
	a := new(answerer)
	if resp, ok := srv.Serve(q, a); !ok || resp != nil {
		t.Fatalf("Serve(%v) = %+v, %v; want it parked", q.Op, resp, ok)
	}
	if a.h == nil {
		t.Fatalf("Serve(%v) parked without handing over its cancel hook", q.Op)
	}
	return a
}

// TestServedGetCancelRacesPut: a get Serve parked is canceled through its
// hook while a put lands on its folder, from two goroutines at once. Whoever
// moves the record to done answers it, so it is answered exactly once, and
// canceled only if the memo is still in the folder.
func TestServedGetCancelRacesPut(t *testing.T) {
	const rounds = 500
	srv := NewServer(0, "a", NewStore(), threadcache.Config{})
	canceled := 0
	for i := 0; i < rounds; i++ {
		k := symbol.K(1, uint32(i))
		a := serveParked(t, srv, &wire.Request{Op: wire.OpGet, Key: k})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				runtime.Gosched()
			}
			a.h.Cancel(a.id)
		}()
		go func() {
			defer wg.Done()
			if err := srv.store.Put(k, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		n, resp := a.outcome()
		if n != 1 {
			t.Fatalf("round %d: answered %d times", i, n)
		}
		_, left, err := srv.store.GetSkip(k)
		switch {
		case err != nil:
			t.Fatal(err)
		case resp.Status == wire.StatusCanceled && !left:
			t.Fatalf("round %d: get answered canceled and its memo is gone", i)
		case resp.Status == wire.StatusCanceled:
			canceled++
		case resp.Status != wire.StatusOK || len(resp.Payload) != 1 || resp.Payload[0] != byte(i) || left:
			t.Fatalf("round %d: get answered %+v, memo left %v", i, resp, left)
		}
		a.h.Cancel(a.id) // stale: answered already
		if n, _ := a.outcome(); n != 1 {
			t.Fatalf("round %d: a stale cancel answered again", i)
		}
	}
	if w := srv.store.occupancy(nil); w.waiters != 0 || w.folders != 0 {
		t.Fatalf("%d waiters and %d folders left", w.waiters, w.folders)
	}
	t.Logf("%d of %d racing gets canceled", canceled, rounds)
}

// TestServedAltTakeTwoPutsTakeOne: an alt_take Serve parked on two folders
// of two shards is notified by two puts at once, each re-scanning it on its
// own goroutine. It takes exactly one memo and is answered once.
func TestServedAltTakeTwoPutsTakeOne(t *testing.T) {
	const rounds = 500
	srv := NewServer(0, "a", NewStore(), threadcache.Config{})
	for i := 0; i < rounds; i++ {
		keys := []symbol.Key{symbol.K(1, uint32(i)), symbol.K(2, uint32(i))}
		a := serveParked(t, srv, &wire.Request{Op: wire.OpAltTake, Key: keys[0], Keys: keys})
		var wg sync.WaitGroup
		for j, k := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := srv.store.Put(k, []byte{byte(j)}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		n, resp := a.outcome()
		if n != 1 || resp.Status != wire.StatusOK {
			t.Fatalf("round %d: answered %d times, last %+v", i, n, resp)
		}
		if o := srv.store.occupancy(nil); o.memos != 1 || o.waiters != 0 {
			t.Fatalf("round %d: %d memos and %d waiters left, want 1 and 0", i, o.memos, o.waiters)
		}
		if _, _, ok, err := srv.store.AltSkip(keys); err != nil || !ok {
			t.Fatalf("round %d: the memo the alt_take left: %v %v", i, ok, err)
		}
	}
}

// TestServeRefusesHeldToken: a tokened get whose token another attempt
// holds would wait for it, so Serve refuses it before the cancel hook or
// any registration, leaving it to a thread.
func TestServeRefusesHeldToken(t *testing.T) {
	srv := NewServer(0, "a", NewStore(), threadcache.Config{})
	k := symbol.K(3)
	first := serveParked(t, srv, &wire.Request{Op: wire.OpGet, Key: k, Token: 7})
	retry := new(answerer)
	if resp, ok := srv.Serve(&wire.Request{Op: wire.OpGet, Key: k, Token: 7}, retry); ok || resp != nil {
		t.Fatalf("Serve of a retry behind a held token = %+v, %v; want it refused", resp, ok)
	}
	if retry.h != nil || waiters(srv.store) != 1 {
		t.Fatalf("a refused retry took a hook (%v) or registered (%d waiters, want 1)", retry.h != nil, waiters(srv.store))
	}
	if err := srv.store.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, resp := first.outcome(); n != 1 || string(resp.Payload) != "v" {
		t.Fatalf("original: %d answers, %+v", n, resp)
	}
	resp, ok := srv.Serve(&wire.Request{Op: wire.OpGet, Key: k, Token: 7}, retry)
	if !ok || resp == nil || string(resp.Payload) != "v" {
		t.Fatalf("retry after the original took: %+v, %v; want the cached memo at once", resp, ok)
	}
}

// TestServeLeavesDurableToThreads: an op on a durable store may wait on the
// group fsync, so Serve refuses it.
func TestServeLeavesDurableToThreads(t *testing.T) {
	srv, err := OpenServer(0, "a", t.TempDir(), durable.Config{Sync: durable.SyncNever}, threadcache.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if resp, ok := srv.Serve(&wire.Request{Op: wire.OpPut, Key: symbol.K(1), Payload: []byte("v")}, new(answerer)); ok || resp != nil {
		t.Fatalf("Serve on a durable store = %+v, %v; want it refused", resp, ok)
	}
}
