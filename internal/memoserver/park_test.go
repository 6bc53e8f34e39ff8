package memoserver

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// completions counts a Go'd call's outcomes and signals the first.
type completions struct {
	mu   sync.Mutex
	n    int
	resp wire.Response
	err  error
	done chan struct{}
}

func newCompletions() *completions { return &completions{done: make(chan struct{})} }

func (c *completions) Complete(resp *wire.Response, _ []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.n > 1 {
		return
	}
	if err == nil {
		c.resp = wire.Response{Status: resp.Status, Key: resp.Key.Clone(), Payload: append([]byte(nil), resp.Payload...)}
	}
	c.err = err
	close(c.done)
}

func (c *completions) await(t *testing.T, what string) {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never answered", what)
	}
}

// TestParkedGetsHoldNoThread: 10² and then 10⁴ blocking gets, issued over
// one rpc conn to a with Conn.Go for a folder on a (answered on a's read
// loop) and for one on b (relayed from a, parked at b), park as waiter
// records: the process's goroutines — both nodes' — rise by a small fixed
// slack, not by one per get. The puts that follow hand each get its own
// value. The heap per parked get — the client's pending call included — is
// logged. The durable rows run the same on folders whose write-ahead log is
// in a temp dir: their puts and takes are answered by the log's syncer,
// after the fsync that covers their records, on no thread either.
func TestParkedGetsHoldNoThread(t *testing.T) {
	const slack = 16 // runtime, thread-cache and link churn; a thread per get is n more
	for _, route := range []struct {
		name    string
		folder  int
		owner   string
		durable bool
	}{{"local", 0, "a", false}, {"forwarded", 1, "b", false}, {"durable-local", 0, "a", true}, {"durable-forwarded", 1, "b", true}} {
		for _, n := range []int{100, 10000} {
			t.Run(fmt.Sprintf("%s/%d", route.name, n), func(t *testing.T) {
				var cfg Config
				if route.durable {
					cfg.DataDir = t.TempDir()
					cfg.Durable = durable.Config{Sync: durable.SyncNever}
				}
				tn := bootNet(t, twoHostADF, cfg)
				fs, _ := tn.nodes[route.owner].LocalFolderServer(tn.file.App, route.folder)
				raw, err := tn.sim.DialFrom("a", MemoAddr("a"))
				if err != nil {
					t.Fatal(err)
				}
				conn := rpc.NewConnResilient(raw, rpc.Resilience{})
				t.Cleanup(func() { conn.Close() })
				q := func(op wire.Op, i int, payload []byte) *wire.Request {
					r := req(op, route.folder, symbol.K(symbol.Symbol(i)), payload)
					r.App = tn.file.App
					return r
				}
				// Warm the peer link and the thread caches.
				if resp, err := conn.Call(q(wire.OpPut, -1, []byte("warm")), nil); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("warm put: %+v %v", resp, err)
				}
				if resp, err := conn.Call(q(wire.OpGet, -1, nil), nil); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("warm get: %+v %v", resp, err)
				}

				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				goroutines := runtime.NumGoroutine()
				gets := make([]*completions, n)
				for i := range gets {
					gets[i] = newCompletions()
					if _, err := conn.Go(q(wire.OpGet, i, nil), gets[i]); err != nil {
						t.Fatal(err)
					}
				}
				awaitWaiters(t, fs, n)
				rose := runtime.NumGoroutine() - goroutines
				runtime.GC()
				runtime.ReadMemStats(&after)
				t.Logf("%d parked %s gets: %d goroutines more, %d heap bytes per parked get",
					n, route.name, rose, (int64(after.HeapAlloc)-int64(before.HeapAlloc))/int64(n))
				if rose > slack {
					t.Errorf("%d parked %s gets raised the goroutine count by %d, want at most %d", n, route.name, rose, slack)
				}

				puts := make([]*completions, n)
				for i := range puts {
					puts[i] = newCompletions()
					if _, err := conn.Go(q(wire.OpPut, i, []byte(fmt.Sprint(i))), puts[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i := range gets {
					puts[i].await(t, fmt.Sprintf("put %d", i))
					gets[i].await(t, fmt.Sprintf("get %d", i))
					g := gets[i]
					if g.err != nil || g.resp.Status != wire.StatusOK || string(g.resp.Payload) != fmt.Sprint(i) {
						t.Fatalf("get %d: %+v %v, want payload %d", i, g.resp, g.err, i)
					}
				}
				if w, m := folderSeries(fs, "folder_waiters"), folderSeries(fs, "folder_memos"); w != 0 || m != 0 {
					t.Errorf("%d waiters and %d memos left, want none", w, m)
				}
			})
		}
	}
}

// TestHeldTokenRetriesHoldNoThread: 10³ tokened gets park at a on one conn,
// and then their 10³ retries, same tokens, arrive on a second conn and park
// behind the originals' claims: the goroutine count and the thread cache's
// runs stay flat. The puts that follow answer every original with its own
// value and every retry with its original's, from the take cache.
func TestHeldTokenRetriesHoldNoThread(t *testing.T) {
	const n, slack = 1000, 16
	const tok = 1 << 40
	tn := bootNet(t, twoHostADF, Config{})
	a := tn.nodes["a"]
	fs, _ := a.LocalFolderServer(tn.file.App, 0)
	dial := func() *rpc.Conn {
		raw, err := tn.sim.DialFrom("a", MemoAddr("a"))
		if err != nil {
			t.Fatal(err)
		}
		conn := rpc.NewConnResilient(raw, rpc.Resilience{})
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	q := func(op wire.Op, i int, payload []byte) *wire.Request {
		r := req(op, 0, symbol.K(symbol.Symbol(i)), payload)
		r.App = tn.file.App
		return r
	}
	get := func(conn *rpc.Conn, i int) *completions {
		g := q(wire.OpGet, i, nil)
		g.Token = tok + uint64(i)
		c := newCompletions()
		if _, err := conn.Go(g, c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	originals, retries := dial(), dial()
	for _, conn := range []*rpc.Conn{originals, retries} { // warm both conns
		if resp, err := conn.Call(q(wire.OpGetSkip, -1, nil), nil); err != nil || resp.Status != wire.StatusEmpty {
			t.Fatalf("warm get_skip: %+v %v", resp, err)
		}
	}

	goroutines, threads := runtime.NumGoroutine(), poolRuns(a.pool)
	firsts, seconds := make([]*completions, n), make([]*completions, n)
	for i := range firsts {
		firsts[i] = get(originals, i)
	}
	awaitWaiters(t, fs, n)
	for i := range seconds {
		seconds[i] = get(retries, i)
	}
	// The read loop routes in order, and a get_skip on a memory-only folder
	// is answered there: once it is, every retry has been routed.
	if resp, err := retries.Call(q(wire.OpGetSkip, -1, nil), nil); err != nil || resp.Status != wire.StatusEmpty {
		t.Fatalf("get_skip behind the retries: %+v %v", resp, err)
	}
	rose, ran := runtime.NumGoroutine()-goroutines, poolRuns(a.pool)-threads
	if rose > slack || ran != 0 {
		t.Errorf("%d parked gets and their %d retries: %d goroutines more (want at most %d), %d thread runs (want 0)", n, n, rose, slack, ran)
	}
	if w, c := folderSeries(fs, "folder_waiters"), folderSeries(fs, "folder_claims_inflight"); w != n || c != n {
		t.Fatalf("%d waiters and %d claims, want the originals' %d and %d", w, c, n, n)
	}

	puts := make([]*completions, n)
	for i := range puts {
		puts[i] = newCompletions()
		if _, err := originals.Go(q(wire.OpPut, i, []byte(fmt.Sprint(i))), puts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range puts {
		puts[i].await(t, fmt.Sprintf("put %d", i))
		for _, g := range []*completions{firsts[i], seconds[i]} {
			g.await(t, fmt.Sprintf("get %d", i))
			if g.err != nil || g.resp.Status != wire.StatusOK || string(g.resp.Payload) != fmt.Sprint(i) {
				t.Fatalf("get %d: %+v %v, want payload %d", i, g.resp, g.err, i)
			}
		}
	}
	if dups, m, c := folderSeries(fs, "folder_dup_takes_total"), folderSeries(fs, "folder_memos"), folderSeries(fs, "folder_claims_inflight"); dups != n || m != 0 || c != 0 {
		t.Errorf("%d takes answered from the cache, %d memos and %d claims left; want %d, 0 and 0", dups, m, c, n)
	}
}

// answers reads a raw client's responses, counting them per request id.
type answers struct {
	r     *rawClient
	count map[uint64]int
	last  map[uint64]*wire.Response
}

func newAnswers(r *rawClient) *answers {
	return &answers{r: r, count: map[uint64]int{}, last: map[uint64]*wire.Response{}}
}

// await returns id's response, reading (and counting) the others on the way.
func (a *answers) await(t *testing.T, id uint64) *wire.Response {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for a.count[id] == 0 {
		select {
		case rr, ok := <-a.r.got:
			if !ok {
				t.Fatalf("conn ended before the response to %d", id)
			}
			a.count[rr.id]++
			a.last[rr.id] = rr.resp
		case <-deadline:
			t.Fatalf("no response to request %d", id)
		}
	}
	return a.last[id]
}

// onlyOnce drains what arrives within d and fails on any id answered twice.
func (a *answers) onlyOnce(t *testing.T, d time.Duration) {
	t.Helper()
	deadline := time.After(d)
	for {
		select {
		case rr, ok := <-a.r.got:
			if !ok {
				return
			}
			a.count[rr.id]++
		case <-deadline:
			for id, n := range a.count {
				if n > 1 {
					t.Errorf("request %d answered %d times", id, n)
				}
			}
			return
		}
	}
}

// TestParkedGetCancelThreeWays cancels a get parked as a waiter record — at
// a, on a's read loop, and at b, behind a relay — by a cancel entry, by its
// conn's end, and by a cancel racing the put that fills it. Every get is
// answered once, canceled only if it took nothing: the memo a canceled get
// might have taken is still in its folder.
func TestParkedGetCancelThreeWays(t *testing.T) {
	for _, route := range []struct {
		name   string
		folder int
		owner  string
	}{{"local", 0, "a"}, {"forwarded", 1, "b"}} {
		t.Run(route.name, func(t *testing.T) {
			tn := bootNet(t, twoHostADF, Config{})
			fs, _ := tn.nodes[route.owner].LocalFolderServer(tn.file.App, route.folder)
			c := tn.client(t, "a")
			put := func(k symbol.Key, v string) {
				t.Helper()
				if resp, err := c.Do(req(wire.OpPut, route.folder, k, []byte(v)), nil); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("put: %+v %v", resp, err)
				}
			}
			kept := func(k symbol.Key, v string) {
				t.Helper()
				resp, err := c.Do(req(wire.OpGetSkip, route.folder, k, nil), nil)
				if err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != v {
					t.Fatalf("a canceled get on %v took its memo: get_skip %+v %v, want %q", k, resp, err, v)
				}
			}
			r := dialRaw(t, tn, "a", true)
			got := newAnswers(r)

			// By a cancel entry.
			r.send(t, r.req(1, wire.OpGet, route.folder, symbol.K(1), nil))
			awaitWaiters(t, fs, 1)
			r.send(t, cancelEntry(1))
			if resp := got.await(t, 1); resp.Status != wire.StatusCanceled {
				t.Fatalf("canceled parked get: %+v, want StatusCanceled", resp)
			}
			awaitWaiters(t, fs, 0)
			put(symbol.K(1), "one")
			kept(symbol.K(1), "one")

			// By its conn's end.
			gone := dialRaw(t, tn, "a", false)
			gone.send(t, gone.req(1, wire.OpGet, route.folder, symbol.K(2), nil))
			awaitWaiters(t, fs, 1)
			gone.conn.Close()
			awaitWaiters(t, fs, 0)
			put(symbol.K(2), "two")
			kept(symbol.K(2), "two")

			// By a cancel racing the put that fills it.
			const rounds = 100
			took, canceled := 0, 0
			for i := 0; i < rounds; i++ {
				id := uint64(100 + i)
				k := symbol.K(3, uint32(i))
				r.send(t, r.req(id, wire.OpGet, route.folder, k, nil))
				awaitWaiters(t, fs, 1)
				v := fmt.Sprint(i)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i%2 == 0 {
						runtime.Gosched()
					}
					if err := r.conn.Send(wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{cancelEntry(id)})); err != nil {
						t.Error(err)
					}
				}()
				put(k, v)
				wg.Wait()
				switch resp := got.await(t, id); resp.Status {
				case wire.StatusCanceled:
					canceled++
					kept(k, v)
				case wire.StatusOK:
					took++
					if string(resp.Payload) != v {
						t.Fatalf("round %d: get took %q, want %q", i, resp.Payload, v)
					}
				default:
					t.Fatalf("round %d: %+v", i, resp)
				}
				awaitWaiters(t, fs, 0)
			}
			got.onlyOnce(t, 50*time.Millisecond)
			if m := folderSeries(fs, "folder_memos"); m != 0 {
				t.Errorf("%d memos left, want none", m)
			}
			t.Logf("%d racing gets took their memo, %d were canceled with it kept", took, canceled)
		})
	}
}

// TestAltTakeWokenByTwoPutsTakesOne: an alt_take parked on two folders of a
// is notified by two puts that land at once, from two conns whose read loops
// both re-scan it. It takes exactly one memo, and the other stays.
func TestAltTakeWokenByTwoPutsTakesOne(t *testing.T) {
	const rounds = 100
	tn := bootNet(t, twoHostADF, Config{})
	fs, _ := tn.nodes["a"].LocalFolderServer(tn.file.App, 0)
	taker := tn.client(t, "a")
	putters := [2]*Client{tn.client(t, "a"), tn.client(t, "a")}
	for i := 0; i < rounds; i++ {
		keys := []symbol.Key{symbol.K(1, uint32(i)), symbol.K(2, uint32(i))}
		alt := req(wire.OpAltTake, 0, keys[0], nil)
		alt.Keys = keys
		type result struct {
			resp *wire.Response
			err  error
		}
		done := make(chan result, 1)
		go func() {
			resp, err := taker.Do(alt, nil)
			done <- result{resp, err}
		}()
		awaitWaiters(t, fs, 2)
		var wg sync.WaitGroup
		for j, c := range putters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := c.Do(req(wire.OpPut, 0, keys[j], []byte{byte(j)}), nil); err != nil || resp.Status != wire.StatusOK {
					t.Errorf("put %d: %+v %v", j, resp, err)
				}
			}()
		}
		wg.Wait()
		res := <-done
		if res.err != nil || res.resp.Status != wire.StatusOK || len(res.resp.Payload) != 1 {
			t.Fatalf("round %d: alt_take %+v %v", i, res.resp, res.err)
		}
		if m, w := folderSeries(fs, "folder_memos"), folderSeries(fs, "folder_waiters"); m != 1 || w != 0 {
			t.Fatalf("round %d: %d memos and %d waiters left after one alt_take and two puts, want 1 and 0", i, m, w)
		}
		other := keys[1-int(res.resp.Payload[0])]
		if resp, err := taker.Do(req(wire.OpGetSkip, 0, other, nil), nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("round %d: the memo the alt_take left: %+v %v", i, resp, err)
		}
	}
}

// TestParkedTokenedGetOrdering pins the order a tokened get parks in on the
// read loop — the cancel hook, then the token claim, then the registration —
// and that whoever moves a parked get's record to done answers it, once. A
// retry of a parked tokened get finds the token claimed, registers on no
// folder and parks behind the claim, on no thread; canceling the retry
// leaves the original parked;
// the put that fills the original answers a second retry from the cached
// take, with the same memo. A parked tokened get canceled through its hook
// abandons its claim, so its retry executes afresh.
func TestParkedTokenedGetOrdering(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	a := tn.nodes["a"]
	fs, _ := a.LocalFolderServer(tn.file.App, 0)
	c := tn.client(t, "a")
	r := dialRaw(t, tn, "a", true)
	got := newAnswers(r)
	tokened := func(id uint64, op wire.Op, k symbol.Key, tok uint64) wire.BatchEntry {
		e := r.req(id, op, 0, k, nil)
		e.Token = tok
		return e
	}
	const tok, tok2 = 1 << 40, 1<<40 + 1
	k, k2 := symbol.K(1), symbol.K(2)

	ran := func() int64 { return poolRuns(a.pool) }
	r.send(t, tokened(1, wire.OpGet, k, tok))
	awaitWaiters(t, fs, 1)
	threads := ran()
	// The read loop routes in order: once the ping behind the retry is
	// answered, the retry has been routed, and the ping's is the one thread.
	r.send(t, tokened(2, wire.OpGet, k, tok), r.req(10, wire.OpPing, 0, symbol.Key{}, nil))
	if resp := got.await(t, 10); resp.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", resp)
	}
	if n := ran() - threads; n != 1 {
		t.Fatalf("a retry behind a claimed token and a ping ran %d threads, want the ping's 1", n)
	}
	if w := folderSeries(fs, "folder_waiters"); w != 1 {
		t.Fatalf("a retry behind a claimed token registered: %d waiters, want the original's 1", w)
	}
	r.send(t, cancelEntry(2))
	if resp := got.await(t, 2); resp.Status != wire.StatusCanceled {
		t.Fatalf("canceled retry: %+v, want StatusCanceled", resp)
	}
	if w := folderSeries(fs, "folder_waiters"); w != 1 {
		t.Fatalf("canceling the retry touched the original: %d waiters, want 1", w)
	}
	r.send(t, tokened(3, wire.OpGet, k, tok))
	time.Sleep(10 * time.Millisecond)
	if resp, err := c.Do(req(wire.OpPut, 0, k, []byte("only")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	for _, id := range []uint64{1, 3} {
		if resp := got.await(t, id); resp.Status != wire.StatusOK || string(resp.Payload) != "only" {
			t.Fatalf("get %d: %+v, want the one memo", id, resp)
		}
	}
	if dups, m := folderSeries(fs, "folder_dup_takes_total"), folderSeries(fs, "folder_memos"); dups != 1 || m != 0 {
		t.Fatalf("%d takes answered from the cache and %d memos left, want 1 and 0", dups, m)
	}
	r.send(t, cancelEntry(1)) // stale: its get was answered

	r.send(t, tokened(4, wire.OpGet, k2, tok2))
	awaitWaiters(t, fs, 1)
	r.send(t, cancelEntry(4))
	if resp := got.await(t, 4); resp.Status != wire.StatusCanceled {
		t.Fatalf("canceled parked tokened get: %+v, want StatusCanceled", resp)
	}
	if n := folderSeries(fs, "folder_claims_inflight"); n != 0 {
		t.Fatalf("%d claims in flight after the cancel, want 0", n)
	}
	if resp, err := c.Do(req(wire.OpPut, 0, k2, []byte("fresh")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	r.send(t, tokened(5, wire.OpGet, k2, tok2))
	if resp := got.await(t, 5); resp.Status != wire.StatusOK || string(resp.Payload) != "fresh" {
		t.Fatalf("retry of a canceled tokened get: %+v, want the memo put after the cancel", resp)
	}
	got.onlyOnce(t, 50*time.Millisecond)
}
