package folder

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/wire"
)

// TestStoreRoundAllocBudgets pins the allocations of one put+get round at the
// store's own door: the deposit's private copy, plus the folder's name when a
// folder is made that no recycled one can lend it. The descriptor, the key
// plan, the waiter channel and everything the dedup table keeps stay off the
// heap. (The same round through Server.Handle is TestHandleRoundAllocBudget.)
func TestStoreRoundAllocBudgets(t *testing.T) {
	k := symbol.K(7)
	payload := make([]byte, 64)
	var tok uint64

	s := NewStore()
	plain := testing.AllocsPerRun(200, func() {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(k, nil); err != nil {
			t.Fatal(err)
		}
	})
	tokened := testing.AllocsPerRun(200, func() {
		tok += 2
		if err := s.PutToken(k, payload, tok); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetToken(k, tok+1, nil); err != nil {
			t.Fatal(err)
		}
	})
	for _, c := range []struct {
		name      string
		got, most float64
	}{
		{"Put+Get", plain, 2},
		{"PutToken+GetToken", tokened, 2},
	} {
		t.Logf("%s: %.1f allocs/round", c.name, c.got)
		if c.got > c.most {
			t.Errorf("%s: %.1f allocs/round, budget %.0f", c.name, c.got, c.most)
		}
	}
}

// cell is one point of the read matrix: every combination the engine's
// descriptor can express.
type cell struct {
	shape  string // "one", "same-shard", "cross-shard"
	mode   readMode
	block  bool
	token  bool
	traced bool
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/block=%t/token=%t/traced=%t",
		c.shape, [...]string{modeTake: "take", modeCopy: "copy", modePeek: "peek"}[c.mode], c.block, c.token, c.traced)
}

// readResult is one read's outcome, whichever route ran it.
type readResult struct {
	key   symbol.Key
	val   []byte
	ok    bool
	err   error
	spans []wire.Span // handle route, traced
}

func (r readResult) canceled() bool { return r.err == wire.ErrCanceled }

// A route runs the cell's read against srv, or reports that it cannot
// express the cell; with a nil srv it only reports. The engine route covers
// the whole matrix, the other two every cell an exported wrapper or a wire
// op exists for.
var routes = []struct {
	name string
	run  func(srv *Server, c cell, keys []symbol.Key, tok uint64, cancel <-chan struct{}) (readResult, bool)
}{
	{"engine", func(srv *Server, c cell, keys []symbol.Key, tok uint64, cancel <-chan struct{}) (readResult, bool) {
		if c.token && c.mode != modeTake {
			return readResult{}, false // tokens dedup destructive reads only
		}
		if srv == nil {
			return readResult{}, true
		}
		op := storeOp{keys: keys, mode: c.mode, block: c.block, token: tok, cancel: cancel}
		if c.traced {
			op.ot = new(opTrace)
		}
		k, v, ok, err := srv.store.run(&op, nil, nil)
		return readResult{key: k, val: v, ok: ok, err: err}, true
	}},
	{"wrapper", func(srv *Server, c cell, keys []symbol.Key, tok uint64, cancel <-chan struct{}) (readResult, bool) {
		one, take := len(keys) == 1, c.mode == modeTake
		r := readResult{key: keys[0], ok: true}
		var call func(s *Store)
		switch {
		case c.traced || (c.token && !take):
			return r, false
		case one && take && c.block && !c.token:
			call = func(s *Store) { r.val, r.err = s.Get(keys[0], cancel) }
		case one && take && c.block:
			call = func(s *Store) { r.val, r.err = s.GetToken(keys[0], tok, cancel) }
		case one && take && !c.token:
			call = func(s *Store) { r.val, r.ok, r.err = s.GetSkip(keys[0]) }
		case one && take:
			call = func(s *Store) { r.val, r.ok, r.err = s.GetSkipToken(keys[0], tok) }
		case one && c.mode == modeCopy && c.block:
			call = func(s *Store) { r.val, r.err = s.GetCopy(keys[0], cancel) }
		case take && c.block && !c.token:
			call = func(s *Store) { r.key, r.val, r.err = s.AltTake(keys, cancel) }
		case take && c.block:
			call = func(s *Store) { r.key, r.val, r.err = s.AltTakeToken(keys, tok, cancel) }
		case take && !c.token:
			call = func(s *Store) { r.key, r.val, r.ok, r.err = s.AltSkip(keys) }
		case c.mode == modePeek && c.block:
			call = func(s *Store) { r.key, r.err = s.Watch(keys, cancel) }
		default:
			return r, false
		}
		if srv != nil {
			call(srv.store)
			r.ok = r.ok && r.err == nil
		}
		return r, true
	}},
	{"handle", func(srv *Server, c cell, keys []symbol.Key, tok uint64, cancel <-chan struct{}) (readResult, bool) {
		// The token rides along even on copy and peek, which must ignore it.
		q := &wire.Request{Key: keys[0], Token: tok}
		one, take := len(keys) == 1, c.mode == modeTake
		switch {
		case one && take && c.block:
			q.Op = wire.OpGet
		case one && take:
			q.Op = wire.OpGetSkip
		case one && c.mode == modeCopy && c.block:
			q.Op = wire.OpGetCopy
		case take && c.block:
			q.Op, q.Keys = wire.OpAltTake, keys
		case c.mode == modePeek && c.block:
			q.Op, q.Keys = wire.OpWatch, keys
		default:
			return readResult{}, false
		}
		if srv == nil {
			return readResult{}, true
		}
		if c.traced {
			q.Sampled, q.Spans = true, wire.NewSpanSet()
			defer q.Spans.Release()
		}
		resp := srv.Handle(q, cancel)
		r := readResult{key: resp.Key, val: resp.Payload, spans: q.Spans.Finish("")}
		switch resp.Status {
		case wire.StatusOK, wire.StatusWake:
			r.ok = true
		case wire.StatusErr:
			r.err = errors.New(resp.Err)
		case wire.StatusCanceled:
			r.err = wire.ErrCanceled
		}
		if c.traced && !slices.ContainsFunc(r.spans, func(sp wire.Span) bool {
			return sp.Layer == "folder" && sp.Op == q.Op.String()
		}) {
			r.err = fmt.Errorf("traced %s left no folder span: %+v", q.Op, r.spans)
		}
		return r, true
	}},
}

// matrixStore boots a server holding one decoy memo in a folder no cell
// reads, mirrored in the reference model, and picks the cell's keys.
func matrixStore(t *testing.T, shape string) (*Server, *modelStore, []symbol.Key) {
	t.Helper()
	srv := NewServer(0, "h", NewStore(withShards(8)), threadcache.Config{})
	t.Cleanup(srv.Close)
	s := srv.store
	var keys []symbol.Key
	switch shape {
	case "one":
		keys = crossShardKeys(t, s, 1)
	case "cross-shard":
		keys = crossShardKeys(t, s, 3)
	case "same-shard":
		for sym := symbol.Symbol(1); len(keys) < 3; sym++ {
			if k := symbol.K(sym); s.shardIndex(k) == 0 {
				keys = append(keys, k)
			}
		}
	}
	m := newModel()
	matrixPut(t, srv, m, symbol.K(1<<20, 9), "decoy")
	return srv, m, keys
}

func matrixPut(t *testing.T, srv *Server, m *modelStore, k symbol.Key, v string) {
	t.Helper()
	mustPut(t, srv.store, k, v)
	m.put(k, v)
}

func waiters(s *Store) int { return s.occupancy(nil).waiters }

// awaitWaiters blocks until the store holds exactly n waiter registrations.
func awaitWaiters(t *testing.T, s *Store, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); waiters(s) != n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d waiter registrations, want %d", waiters(s), n)
		}
	}
}

// checkRead holds a satisfied read against the model: a take must return a
// memo the model holds in that folder (and removes it), a copy one it holds
// and keeps, a peek only the folder; afterwards both sides hold the same
// number of memos.
func checkRead(t *testing.T, c cell, srv *Server, m *modelStore, keys []symbol.Key, r readResult) {
	t.Helper()
	if r.err != nil || !r.ok {
		t.Fatalf("read: ok=%t err=%v", r.ok, r.err)
	}
	switch {
	case !slices.ContainsFunc(keys, r.key.Equal):
		t.Fatalf("satisfied key %v is not one of %v", r.key, keys)
	case c.mode == modeTake && !m.take(r.key, string(r.val)):
		t.Fatalf("took %q from %v, which the model does not hold", r.val, r.key)
	case c.mode == modeCopy && m.items[r.key.Canon()][string(r.val)] == 0:
		t.Fatalf("copied %q from %v, which the model does not hold", r.val, r.key)
	case c.mode == modePeek && (m.count(r.key) == 0 || len(r.val) != 0):
		t.Fatalf("peek reported %v (payload %q); model holds %d there", r.key, r.val, m.count(r.key))
	}
	if got := srv.store.occupancy(nil).memos; got != m.total() {
		t.Fatalf("store holds %d memos, model %d", got, m.total())
	}
}

// TestReadMatrix drives {one key, n keys on one shard, n keys across
// shards} × {take, copy, peek} × {block, skip} × {token, none} × {traced,
// untraced} through the engine, the exported wrappers and Server.Handle,
// against the reference model: with the memo waiting, with nothing there
// (a skip misses; a blocking read parks, then is woken or canceled), and
// for tokened takes with a retry on the same token.
func TestReadMatrix(t *testing.T) {
	var cells []cell
	for _, shape := range []string{"one", "same-shard", "cross-shard"} {
		for _, mode := range []readMode{modeTake, modeCopy, modePeek} {
			for i := 0; i < 8; i++ {
				cells = append(cells, cell{shape, mode, i&1 != 0, i&2 != 0, i&4 != 0})
			}
		}
	}
	const tok = 0xC0FFEE
	for _, c := range cells {
		for _, route := range routes {
			nkeys := 3
			if c.shape == "one" {
				nkeys = 1
			}
			if _, ok := route.run(nil, c, make([]symbol.Key, nkeys), 0, nil); !ok {
				continue
			}
			run := func(srv *Server, keys []symbol.Key, cancel <-chan struct{}) readResult {
				token := uint64(0)
				if c.token {
					token = tok
				}
				r, _ := route.run(srv, c, keys, token, cancel)
				return r
			}
			// dedups reports whether a repeat of the read is answered from
			// the token's cache.
			dedups := c.token && c.mode == modeTake

			t.Run(route.name+"/"+c.String()+"/hit", func(t *testing.T) {
				srv, m, keys := matrixStore(t, c.shape)
				last := keys[len(keys)-1] // scans must get past the empty folders
				matrixPut(t, srv, m, last, "m0")
				matrixPut(t, srv, m, last, "m1")
				r := run(srv, keys, nil)
				checkRead(t, c, srv, m, keys, r)
				again := run(srv, keys, nil)
				if dedups {
					if again.err != nil || !again.key.Equal(r.key) || string(again.val) != string(r.val) {
						t.Fatalf("retry = %v %q %v, want the original's %v %q", again.key, again.val, again.err, r.key, r.val)
					}
					if dups, takes, memos := srv.store.dupTakes.Load(), srv.store.takes.Load(), srv.store.occupancy(nil).memos; dups != 1 || takes != 1 || memos != m.total() {
						t.Fatalf("retry consumed again: %d dedups, %d takes, %d memos, model %d", dups, takes, memos, m.total())
					}
					return
				}
				checkRead(t, c, srv, m, keys, again)
				if liveTokens(srv.store) != 0 || srv.store.dupTakes.Load() != 0 {
					t.Fatalf("untokened or non-destructive read touched the token table: %d tokens, %d dedups",
						liveTokens(srv.store), srv.store.dupTakes.Load())
				}
			})

			if !c.block {
				t.Run(route.name+"/"+c.String()+"/miss", func(t *testing.T) {
					srv, m, keys := matrixStore(t, c.shape)
					if r := run(srv, keys, nil); r.ok || r.err != nil {
						t.Fatalf("read of empty folders: ok=%t err=%v", r.ok, r.err)
					}
					if got := srv.store.occupancy(nil).folders; got != 1 {
						t.Fatalf("a miss left folders behind: %d, want the decoy's 1", got)
					}
					matrixPut(t, srv, m, keys[0], "late")
					for n := int64(1); n <= 2 && dedups; n++ {
						// The retry repeats what its original saw, however
						// often it is repeated.
						if r := run(srv, keys, nil); r.ok || r.err != nil {
							t.Fatalf("retry %d of a missed skip: ok=%t err=%v", n, r.ok, r.err)
						}
						if dups, memos := srv.store.dupTakes.Load(), srv.store.occupancy(nil).memos; dups != n || memos != m.total() {
							t.Fatalf("retry %d: %d dedups, %d memos, model %d", n, dups, memos, m.total())
						}
					}
				})
				continue
			}

			t.Run(route.name+"/"+c.String()+"/park-wake", func(t *testing.T) {
				srv, m, keys := matrixStore(t, c.shape)
				got := make(chan readResult, 2)
				go func() { got <- run(srv, keys, nil) }()
				awaitWaiters(t, srv.store, len(keys)) // one per folder, on every shard involved
				if dedups {
					// A retry racing its own parked original waits on the
					// claim; it must not take a memo of its own.
					go func() { got <- run(srv, keys, nil) }()
					time.Sleep(2 * time.Millisecond)
				}
				last := keys[len(keys)-1]
				matrixPut(t, srv, m, last, "w0")
				r := <-got
				checkRead(t, c, srv, m, keys, r)
				if c.traced && route.name == "handle" {
					if !slices.ContainsFunc(r.spans, func(sp wire.Span) bool { return sp.Op == "park" }) {
						t.Fatalf("parked read left no park span: %+v", r.spans)
					}
				}
				if dedups {
					matrixPut(t, srv, m, last, "w1")
					if again := <-got; again.err != nil || !again.key.Equal(r.key) || string(again.val) != string(r.val) {
						t.Fatalf("racing retry = %v %q %v, want the original's %v %q", again.key, again.val, again.err, r.key, r.val)
					}
					if dups, takes, memos := srv.store.dupTakes.Load(), srv.store.takes.Load(), srv.store.occupancy(nil).memos; dups != 1 || takes != 1 || memos != m.total() {
						t.Fatalf("racing retry consumed again: %d dedups, %d takes, %d memos, model %d", dups, takes, memos, m.total())
					}
				}
				if n := waiters(srv.store); n != 0 {
					t.Fatalf("%d waiter registrations left after the wake", n)
				}
				if got, want := srv.store.occupancy(nil).folders, len(m.items); got != want {
					t.Fatalf("%d folders after the wake, model has %d", got, want)
				}
			})

			t.Run(route.name+"/"+c.String()+"/park-cancel", func(t *testing.T) {
				srv, m, keys := matrixStore(t, c.shape)
				cancel := make(chan struct{})
				got := make(chan readResult, 1)
				go func() { got <- run(srv, keys, cancel) }()
				awaitWaiters(t, srv.store, len(keys))
				close(cancel)
				if r := <-got; !r.canceled() {
					t.Fatalf("canceled read: ok=%t err=%v", r.ok, r.err)
				}
				// Only the decoy's folder survives: every registration, on
				// every shard, is gone and its folder with it.
				if w, f := waiters(srv.store), srv.store.occupancy(nil).folders; w != 0 || f != 1 {
					t.Fatalf("after cancel: %d waiter registrations, %d folders (want 0, 1)", w, f)
				}
				if liveTokens(srv.store) != 0 {
					t.Fatalf("canceled read kept its token claim (%d live)", liveTokens(srv.store))
				}
				// The abandoned token re-executes rather than replaying a
				// non-answer.
				matrixPut(t, srv, m, keys[0], "after")
				checkRead(t, c, srv, m, keys, run(srv, keys, nil))
			})
		}
	}
}
