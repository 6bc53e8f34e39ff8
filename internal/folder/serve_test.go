package folder

import (
	"runtime"
	"sync"
	"testing"
	"time"

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
	if resp := srv.Serve(q, a); resp != nil {
		t.Fatalf("Serve(%v) = %+v; want it parked", q.Op, resp)
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

// TestServeParksHeldTokenRetry: a retry whose token its original still
// holds parks in Serve behind that claim: answered later, its cancel hook
// held, on no folder's list. When the original takes, the retry is answered
// from the cache with the same value, and a retry that arrives after that
// is answered from the cache at once, without parking or taking a hook;
// when the original is canceled, the retry becomes the owner and takes the
// next memo itself.
func TestServeParksHeldTokenRetry(t *testing.T) {
	srv := NewServer(0, "a", NewStore(), threadcache.Config{})
	get := func(k symbol.Key, tok uint64) *wire.Request { return &wire.Request{Op: wire.OpGet, Key: k, Token: tok} }
	answered := func(who string, a *answerer, status wire.Status, val string) {
		t.Helper()
		if n, resp := a.outcome(); n != 1 || resp.Status != status || string(resp.Payload) != val {
			t.Fatalf("%s: %d answers, last %+v; want one, status %v, %q", who, n, resp, status, val)
		}
	}

	k := symbol.K(3)
	first := serveParked(t, srv, get(k, 7))
	retry := serveParked(t, srv, get(k, 7))
	if w := waiters(srv.store); w != 1 {
		t.Fatalf("a retry behind a held token registered: %d waiters, want the original's 1", w)
	}
	if err := srv.store.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	answered("original", first, wire.StatusOK, "v")
	answered("retry", retry, wire.StatusOK, "v")
	if takes, dups := srv.store.takes.Load(), srv.store.dupTakes.Load(); takes != 1 || dups != 1 {
		t.Fatalf("%d takes and %d dedups, want 1 and 1", takes, dups)
	}
	late := new(answerer)
	if resp := srv.Serve(get(k, 7), late); resp == nil || resp.Status != wire.StatusOK || string(resp.Payload) != "v" {
		t.Fatalf("a retry after the take: Serve = %+v; want the cached \"v\" at once", resp)
	}
	if late.h != nil {
		t.Fatal("a retry answered from the cache took a cancel hook")
	}
	if dups := srv.store.dupTakes.Load(); dups != 2 {
		t.Fatalf("%d dedups after the late retry, want 2", dups)
	}

	k2 := symbol.K(4)
	first = serveParked(t, srv, get(k2, 8))
	retry = serveParked(t, srv, get(k2, 8))
	first.h.Cancel(first.id)
	answered("canceled original", first, wire.StatusCanceled, "")
	if w := waiters(srv.store); w != 1 || len(srv.store.tokens.claims) != 1 {
		t.Fatalf("after the owner's cancel: %d waiters and %d claims, want the retry's 1 and 1", w, len(srv.store.tokens.claims))
	}
	if err := srv.store.Put(k2, []byte("w")); err != nil {
		t.Fatal(err)
	}
	answered("retry that became the owner", retry, wire.StatusOK, "w")
	if takes, dups := srv.store.takes.Load(), srv.store.dupTakes.Load(); takes != 2 || dups != 2 {
		t.Fatalf("%d takes and %d dedups, want 2 and 2", takes, dups)
	}
	if o := srv.store.occupancy(nil); o.waiters != 0 || o.folders != 0 || len(srv.store.tokens.claims) != 0 {
		t.Fatalf("%d waiters, %d folders and %d claims left", o.waiters, o.folders, len(srv.store.tokens.claims))
	}
}

// TestParkedAltTakeScansOnce: an alt_take over two shards that finds
// nothing parks from its one pass, which registers it as it goes: two
// shard-group visits, not a first pass that registers nothing and a second
// that does.
func TestParkedAltTakeScansOnce(t *testing.T) {
	srv := NewServer(0, "a", NewStore(), threadcache.Config{})
	s := srv.store
	keys := []symbol.Key{symbol.K(1), symbol.K(2)}
	for x := uint32(0); s.shardIndex(keys[0]) == s.shardIndex(keys[1]); x++ {
		keys[1] = symbol.K(2, x)
	}
	a := serveParked(t, srv, &wire.Request{Op: wire.OpAltTake, Key: keys[0], Keys: keys})
	if scans := s.altScans.Load(); scans != 2 {
		t.Fatalf("a parked two-shard alt_take made %d shard-group visits, want 2", scans)
	}
	if err := s.Put(keys[1], []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n, resp := a.outcome(); n != 1 || string(resp.Payload) != "v" {
		t.Fatalf("alt_take: %d answers, last %+v", n, resp)
	}
}

// TestServeAnswersDurableFromTheLog: on a durable store Serve answers
// nothing at once that logged a record: a put, a take and a repeat of each
// are answered through their Answerer, by the log's completion, with what a
// memory-only store would answer; a miss and a copy log nothing and are
// answered at once.
func TestServeAnswersDurableFromTheLog(t *testing.T) {
	srv, err := OpenServer(0, "a", t.TempDir(), durable.Config{Sync: durable.SyncNever}, threadcache.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	k := symbol.K(1)
	later := func(q *wire.Request, status wire.Status, val string) {
		t.Helper()
		a := new(answerer)
		if resp := srv.Serve(q, a); resp != nil {
			t.Fatalf("Serve(%v) on a durable store answered at once: %+v", q.Op, resp)
		}
		deadline := time.Now().Add(10 * time.Second)
		for n, _ := a.outcome(); n == 0 && time.Now().Before(deadline); n, _ = a.outcome() {
			time.Sleep(time.Millisecond)
		}
		if n, resp := a.outcome(); n != 1 || resp.Status != status || string(resp.Payload) != val || a.h != nil {
			t.Fatalf("Serve(%v): %d answers, last %+v, hook %v; want one, %v %q, no hook", q.Op, n, resp, a.h, status, val)
		}
	}
	later(&wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("v"), Token: 1}, wire.StatusOK, "")
	later(&wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("v"), Token: 1}, wire.StatusOK, "")
	if resp := srv.Serve(&wire.Request{Op: wire.OpGetCopy, Key: k}, new(answerer)); resp == nil || string(resp.Payload) != "v" {
		t.Fatalf("get_copy: %+v, want \"v\" at once", resp)
	}
	later(&wire.Request{Op: wire.OpGet, Key: k, Token: 2}, wire.StatusOK, "v")
	later(&wire.Request{Op: wire.OpGet, Key: k, Token: 2}, wire.StatusOK, "v")
	if resp := srv.Serve(&wire.Request{Op: wire.OpGetSkip, Key: k}, new(answerer)); resp == nil || resp.Status != wire.StatusEmpty {
		t.Fatalf("get_skip of an empty folder: %+v, want Empty at once", resp)
	}
	if puts, dups, takes, dupTakes := srv.store.puts.Load(), srv.store.dupPuts.Load(), srv.store.takes.Load(), srv.store.dupTakes.Load(); puts != 1 || dups != 1 || takes != 1 || dupTakes != 1 {
		t.Fatalf("puts %d, dup puts %d, takes %d, dup takes %d; want 1 each", puts, dups, takes, dupTakes)
	}
}
