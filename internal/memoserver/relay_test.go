package memoserver

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rawClient speaks batch frames by hand on a transport conn to a memo
// server, so a test can place a cancel entry anywhere — in the request's own
// frame, or after its response — and can stop reading responses altogether.
type rawClient struct {
	conn transport.Conn
	app  string
	got  chan rawResp
	seen map[uint64]*wire.Response
}

type rawResp struct {
	id   uint64
	resp *wire.Response
}

// dialRaw connects to host's memo server over tn's Sim. With read off
// nothing ever reads the conn: the server's responses back up on it.
func dialRaw(t *testing.T, tn *testNet, host string, read bool) *rawClient {
	t.Helper()
	conn, err := tn.sim.DialFrom(host, MemoAddr(host))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := &rawClient{conn: conn, app: tn.file.App, got: make(chan rawResp, 1024), seen: map[uint64]*wire.Response{}}
	if read {
		go r.readLoop()
	}
	return r
}

func (r *rawClient) readLoop() {
	defer close(r.got)
	for {
		buf, err := r.conn.Recv()
		if err != nil {
			return
		}
		_, entries, err := wire.DecodeBatch(buf)
		if err != nil {
			return
		}
		for _, e := range entries {
			if e.Heartbeat {
				continue
			}
			resp, err := wire.DecodeResponse(e.Msg)
			if err != nil {
				return
			}
			resp.Retain()
			r.got <- rawResp{e.ID, resp}
		}
	}
}

func (r *rawClient) req(id uint64, op wire.Op, folderID int, k symbol.Key, payload []byte) wire.BatchEntry {
	q := req(op, folderID, k, payload)
	q.App = r.app
	return wire.BatchEntry{ID: id, Msg: wire.EncodeRequest(q)}
}

func cancelEntry(id uint64) wire.BatchEntry { return wire.BatchEntry{ID: id, Cancel: true} }

// send ships entries as one request frame.
func (r *rawClient) send(t *testing.T, entries ...wire.BatchEntry) {
	t.Helper()
	if err := r.conn.Send(wire.EncodeBatch(wire.BatchRequest, entries)); err != nil {
		t.Fatal(err)
	}
}

// await returns request id's response, failing after d.
func (r *rawClient) await(t *testing.T, id uint64, d time.Duration) *wire.Response {
	t.Helper()
	deadline := time.After(d)
	for {
		if resp, ok := r.seen[id]; ok {
			return resp
		}
		select {
		case rr, ok := <-r.got:
			if !ok {
				t.Fatalf("conn ended before the response to %d", id)
			}
			r.seen[rr.id] = rr.resp
		case <-deadline:
			t.Fatalf("no response to request %d after %v", id, d)
		}
	}
}

// TestRelayCancelRaces places a cancel at each point of a relayed get's
// life and holds each outcome to the rule: StatusCanceled only when the get
// consumed nothing, and a cancel for an answered request touches nothing —
// in particular not a later request that reuses the relay's pooled state.
func TestRelayCancelRaces(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	r := dialRaw(t, tn, "a", true)
	fsB, _ := tn.nodes["b"].LocalFolderServer(tn.file.App, 1)
	// consumedNothing checks that a canceled get on k left k's next memo
	// for the next taker.
	consumedNothing := func(id uint64, k symbol.Key) {
		t.Helper()
		r.send(t, r.req(id, wire.OpPut, 1, k, []byte("kept")))
		if resp := r.await(t, id, 5*time.Second); resp.Status != wire.StatusOK {
			t.Fatalf("put after cancel: %+v", resp)
		}
		r.send(t, r.req(id+1, wire.OpGetSkip, 1, k, nil))
		if resp := r.await(t, id+1, 5*time.Second); resp.Status != wire.StatusOK || string(resp.Payload) != "kept" {
			t.Fatalf("the canceled get on %v took the memo put after it: %+v", k, resp)
		}
	}

	// Before any peer call id exists: the first forward to b has no live
	// link, so the relay waits on a thread for its dial, and the cancel
	// rides in the request's own frame.
	r.send(t, r.req(1, wire.OpGet, 1, symbol.K(1), nil), cancelEntry(1))
	if resp := r.await(t, 1, 5*time.Second); resp.Status != wire.StatusCanceled {
		t.Fatalf("get canceled before its dial: %+v, want StatusCanceled", resp)
	}
	consumedNothing(2, symbol.K(1))

	// The link is live now: the read loop relays the get and records its
	// peer call id before it reads the cancel behind it in the same frame.
	r.send(t, r.req(10, wire.OpGet, 1, symbol.K(2), nil), cancelEntry(10))
	if resp := r.await(t, 10, 5*time.Second); resp.Status != wire.StatusCanceled {
		t.Fatalf("get canceled in its own frame: %+v, want StatusCanceled", resp)
	}
	consumedNothing(11, symbol.K(2))

	// During the peer round trip: the get is parked at b.
	r.send(t, r.req(20, wire.OpGet, 1, symbol.K(3), nil))
	awaitWaiters(t, fsB, 1)
	r.send(t, cancelEntry(20))
	if resp := r.await(t, 20, 5*time.Second); resp.Status != wire.StatusCanceled {
		t.Fatalf("get canceled while parked at b: %+v, want StatusCanceled", resp)
	}
	awaitWaiters(t, fsB, 0)
	consumedNothing(21, symbol.K(3))

	// After the response: the get took its memo, so the late cancel changes
	// nothing — and repeated while the next relayed get is parked, it must
	// not reach that get, whatever pooled state the two share.
	r.send(t, r.req(30, wire.OpPut, 1, symbol.K(4), []byte("v4")), r.req(31, wire.OpGet, 1, symbol.K(4), nil))
	if resp := r.await(t, 31, 5*time.Second); resp.Status != wire.StatusOK || string(resp.Payload) != "v4" {
		t.Fatalf("get: %+v", resp)
	}
	r.send(t, cancelEntry(31))
	r.send(t, r.req(32, wire.OpGet, 1, symbol.K(5), nil))
	awaitWaiters(t, fsB, 1)
	r.send(t, cancelEntry(31))
	time.Sleep(20 * time.Millisecond)
	if _, answered := r.seen[32]; answered || folderSeries(fsB, "folder_waiters") != 1 {
		t.Fatalf("a stale cancel reached the next relayed get (answered %v, %d waiters at b)", answered, folderSeries(fsB, "folder_waiters"))
	}
	r.send(t, r.req(33, wire.OpPut, 1, symbol.K(5), []byte("v5")))
	if resp := r.await(t, 32, 5*time.Second); resp.Status != wire.StatusOK || string(resp.Payload) != "v5" {
		t.Fatalf("parked get after a stale cancel: %+v, want v5", resp)
	}
	if n := folderSeries(fsB, "folder_memos"); n != 0 {
		t.Fatalf("%d memos left at b, want 0", n)
	}
}

// relayRig is node a forwarding to a peer "b" that is a bare rpc server
// over a real folder store, so a test can kill a's peer link under a relayed
// request at a chosen point: with the request queued behind a wedged frame
// (provably unsent), or after b applied it (maybe sent).
type relayRig struct {
	node   *Node
	client *Client
	peer   *scriptedPeer
	fs     *folder.Server // b's folder server 1

	mu   sync.Mutex
	last *wedgeConn // a's latest conn to b
	puts map[string][]uint64
}

func newRelayRig(t *testing.T) *relayRig {
	t.Helper()
	rig := &relayRig{puts: map[string][]uint64{}}
	rig.fs = folder.NewServer(1, "b", folder.NewStore(), threadcache.Config{})
	t.Cleanup(rig.fs.Close)
	rig.peer = newScriptedPeer(t, func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		if q.Op == wire.OpPut {
			rig.mu.Lock()
			rig.puts[string(q.Payload)] = append(rig.puts[string(q.Payload)], q.Token)
			rig.mu.Unlock()
		}
		return rig.fs.Handle(q, cancel)
	})
	ip := rig.peer.ip
	res := rpc.Resilience{Retries: 2, Redial: transport.Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond}}
	rig.node = newNode("a", ip, func(_, addr string) (transport.Conn, error) {
		if addr != MemoAddr("b") {
			return ip.Dial(addr)
		}
		c, err := ip.Dial(MemoAddr("peer"))
		if err != nil {
			return nil, err
		}
		w := &wedgeConn{Conn: c, entered: make(chan struct{}), release: make(chan struct{})}
		rig.mu.Lock()
		rig.last = w
		rig.mu.Unlock()
		return w, nil
	}, Config{Resilience: res})
	if err := rig.node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.node.Close)
	tn := bootNet(t, twoHostADF, Config{}) // only for the parsed ADF
	if err := rig.node.RegisterApp(tn.file); err != nil {
		t.Fatal(err)
	}
	c, err := dialClient(func(_, addr string) (transport.Conn, error) { return ip.Dial(addr) }, "a", tn.file.App)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rig.client = c
	return rig
}

// put deposits payload under key k in b's folder through a, failing the test
// on anything but StatusOK.
func (rig *relayRig) put(t *testing.T, k symbol.Key, payload string) {
	t.Helper()
	if resp, err := rig.client.Do(req(wire.OpPut, 1, k, []byte(payload)), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put %q: %+v %v", payload, resp, err)
	}
}

// landedOnce checks that the put of payload under k reached b on every
// attempt with one non-zero token, attempts times, and left one memo.
func (rig *relayRig) landedOnce(t *testing.T, k symbol.Key, payload string, attempts int) {
	t.Helper()
	rig.mu.Lock()
	toks := append([]uint64(nil), rig.puts[payload]...)
	rig.mu.Unlock()
	if len(toks) != attempts || toks[0] == 0 {
		t.Fatalf("put %q reached b %d times with tokens %x; want %d arrivals under one stamped token", payload, len(toks), toks, attempts)
	}
	for _, tok := range toks {
		if tok != toks[0] {
			t.Fatalf("put %q arrived under tokens %x, want one", payload, toks)
		}
	}
	for i, want := range []wire.Status{wire.StatusOK, wire.StatusEmpty} {
		resp, err := rig.client.Do(req(wire.OpGetSkip, 1, k, nil), nil)
		if err != nil || resp.Status != want {
			t.Fatalf("get_skip %d of %q: %+v %v, want status %v (the memo lands once)", i, payload, resp, err, want)
		}
	}
}

// TestRelayedPutSurvivesLinkDeath: a tokened put relayed from a's read loop
// whose peer link dies is retried once, on a thread, under the token it was
// stamped with on the read loop — and the memo lands once.
func TestRelayedPutSurvivesLinkDeath(t *testing.T) {
	t.Run("unsent", func(t *testing.T) {
		rig := newRelayRig(t)
		rig.put(t, symbol.K(1), "warm") // the link is live: later puts relay on the read loop
		rig.mu.Lock()
		w := rig.last
		rig.mu.Unlock()
		w.stuck.Store(true)
		parked := make(chan error, 1)
		go func() {
			// Its frame wedges in Send: the put below queues behind it.
			_, err := rig.client.Do(req(wire.OpGet, 1, symbol.K(9), nil), nil)
			parked <- err
		}()
		<-w.entered
		before := rpcCalls()
		done := make(chan error, 1)
		go func() {
			resp, err := rig.client.Do(req(wire.OpPut, 1, symbol.K(2), []byte("unsent")), nil)
			if err == nil && resp.Status != wire.StatusOK {
				t.Errorf("put: %+v", resp)
			}
			done <- err
		}()
		// One call at the client, one relayed by a: the put is queued at a.
		for rpcCalls() < before+2 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond)
		close(w.release)
		if err := <-done; err != nil {
			t.Fatalf("put queued behind a dying frame: %v", err)
		}
		rig.landedOnce(t, symbol.K(2), "unsent", 1)
		rig.put(t, symbol.K(9), "wake")
		if err := <-parked; err != nil {
			t.Fatalf("get retried across the link death: %v", err)
		}
		if got := rig.node.retried.Load(); got < 2 {
			t.Fatalf("node retried %d calls, want the put and the get", got)
		}
	})
	t.Run("maybe-sent", func(t *testing.T) {
		rig := newRelayRig(t)
		rig.put(t, symbol.K(1), "warm")
		rig.peer.mu.Lock()
		rig.peer.drops = 1 // b applies the next request, then its link dies
		rig.peer.mu.Unlock()
		rig.put(t, symbol.K(3), "maybe")
		rig.landedOnce(t, symbol.K(3), "maybe", 2)
		if dups := folderSeries(rig.fs, "folder_dup_puts_total"); dups != 1 {
			t.Fatalf("%d deduplicated puts at b, want 1", dups)
		}
		if got := rig.node.retried.Load(); got != 1 {
			t.Fatalf("node retried %d calls, want 1", got)
		}
	})
}

// TestStalledClientDoesNotStallRelays: a client that stops reading its
// responses backs up its own conn's response queue only. The peer conn's
// receive loop answers relayed requests without waiting on that queue, so
// a second client's forwarded put+get still completes promptly. And a put
// from the second client that fills a get the stalled client parked at a
// answers that get from the second client's read loop without waiting on
// the stalled queue either: the put returns promptly, and so does the
// second client's next request on the same conn.
func TestStalledClientDoesNotStallRelays(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	fsA, _ := tn.nodes["a"].LocalFolderServer(tn.file.App, 0)
	stalled := dialRaw(t, tn, "a", false)
	stalled.send(t, stalled.req(1, wire.OpGet, 0, symbol.K(3), nil))
	awaitWaiters(t, fsA, 1)
	const frames, perFrame = 300, 64
	entries := make([]wire.BatchEntry, perFrame)
	for f := 0; f < frames; f++ {
		for i := range entries {
			entries[i] = stalled.req(uint64(f*perFrame+i+2), wire.OpGetSkip, 1, symbol.K(1), nil)
		}
		stalled.send(t, entries...)
	}
	time.Sleep(100 * time.Millisecond) // let its responses back up at a

	c := tn.client(t, "a")
	done := make(chan error, 1)
	go func() {
		resp, err := c.Do(req(wire.OpPut, 0, symbol.K(3), []byte("parked")), nil)
		if err == nil && resp.Status == wire.StatusOK {
			resp, err = c.Do(req(wire.OpPut, 1, symbol.K(2), []byte("through")), nil)
		}
		if err == nil && resp.Status == wire.StatusOK {
			resp, err = c.Do(req(wire.OpGet, 1, symbol.K(2), nil), nil)
		}
		if err == nil && (resp.Status != wire.StatusOK || string(resp.Payload) != "through") {
			t.Errorf("get: %+v", resp)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a put that woke a stalled client's get, or a forwarded put+get behind it, stalled")
	}
	if w, m := folderSeries(fsA, "folder_waiters"), folderSeries(fsA, "folder_memos"); w != 0 || m != 0 {
		t.Fatalf("the stalled client's get left %d waiters and %d memos at a, want it answered with the memo", w, m)
	}
}

// TestParkedForwardedGetHoldsNoThreadAtEntry: n blocking gets from a client
// at a for b's folder park at b, one thread each there, and hold nothing at
// a — the relay is a pending call on the peer conn, not a thread waiting in
// it. The gets are issued with rpc.Conn.Go, so no caller goroutine stands in
// for them either; n puts then hand each get its own value.
func TestParkedForwardedGetHoldsNoThreadAtEntry(t *testing.T) {
	const n = 200
	const slack = 8 // runtime and thread-cache churn; a thread per get at a is n more
	tn := bootNet(t, twoHostADF, Config{})
	fsB, _ := tn.nodes["b"].LocalFolderServer(tn.file.App, 1)
	raw, err := tn.sim.DialFrom("a", MemoAddr("a"))
	if err != nil {
		t.Fatal(err)
	}
	conn := rpc.NewConnResilient(raw, rpc.Resilience{})
	t.Cleanup(func() { conn.Close() })
	// Warm the peer link and both thread caches.
	put := func(i int) {
		q := req(wire.OpPut, 1, symbol.K(symbol.Symbol(i)), []byte{byte(i)})
		q.App = tn.file.App
		if resp, err := conn.Call(q, nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %+v %v", i, resp, err)
		}
	}
	put(n)

	before := runtime.NumGoroutine()
	gets := make([]*parkedGet, n)
	for i := range gets {
		gets[i] = &parkedGet{done: make(chan struct{})}
		q := req(wire.OpGet, 1, symbol.K(symbol.Symbol(i)), nil)
		q.App = tn.file.App
		if _, err := conn.Go(q, gets[i]); err != nil {
			t.Fatal(err)
		}
	}
	awaitWaiters(t, fsB, n)
	if rose := runtime.NumGoroutine() - before; rose > n+slack {
		t.Errorf("%d forwarded gets parked at b hold %d goroutines, want one each at b and none at a", n, rose)
	}
	for i := 0; i < n; i++ {
		put(i)
	}
	for i, g := range gets {
		select {
		case <-g.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("get %d never woke", i)
		}
		if g.err != nil || g.status != wire.StatusOK || len(g.payload) != 1 || g.payload[0] != byte(i) {
			t.Errorf("get %d woke with %v %v %v, want payload [%d]", i, g.status, g.payload, g.err, byte(i))
		}
	}
}

// TestHostVerbRelaysWithoutThread: a host-scoped verb for another host is
// relayed from a's read loop like a folder forward. After warm-up, n
// pump+fetch round trips from a client at a to host b all succeed, each is
// counted once in a's node_forwards_total, and none of them takes a thread
// of a's cache.
func TestHostVerbRelaysWithoutThread(t *testing.T) {
	const n = 50
	tn := bootNet(t, twoHostADF, Config{})
	a := tn.nodes["a"]
	c := tn.client(t, "a")
	round := func(i int) {
		dir := fmt.Sprintf("prog%d", i)
		blob := []byte(dir + "-image")
		pump := &wire.Request{Op: wire.OpPump, TargetHost: "b", Dir: dir, Payload: blob}
		if resp, err := c.Do(pump, nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("pump %d: %+v %v", i, resp, err)
		}
		fetch := &wire.Request{Op: wire.OpFetch, TargetHost: "b", Dir: dir}
		if resp, err := c.Do(fetch, nil); err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != string(blob) {
			t.Fatalf("fetch %d: %+v %v", i, resp, err)
		}
	}
	round(-1) // warm the peer link and both thread caches
	forwards, cache := a.forwards.Load(), poolRuns(a.pool)
	for i := 0; i < n; i++ {
		round(i)
	}
	if got := a.forwards.Load() - forwards; got != 2*n {
		t.Errorf("node_forwards_total at a moved by %d over %d pump+fetch rounds, want %d", got, n, 2*n)
	}
	if ran := poolRuns(a.pool) - cache; ran != 0 {
		t.Errorf("%d pump+fetch rounds to b ran %d tasks on a's thread cache, want 0", n, ran)
	}
}

// parkedGet is one Go'd get's completion.
type parkedGet struct {
	status  wire.Status
	payload []byte
	err     error
	done    chan struct{}
}

func (g *parkedGet) Complete(resp *wire.Response, _ []byte, err error) {
	if err == nil {
		g.status, g.payload = resp.Status, append([]byte(nil), resp.Payload...)
	}
	g.err = err
	close(g.done)
}

// TestForwardedRoundAllocBudget holds an unsampled put+get round from a
// client at a to b's folder to what it cost when a worker ran each forward
// and decoded, copied and re-encoded its response: 8 (15 under -race, where
// sync.Pool drops a quarter of what it is handed). The relay record, the
// pending call and the inbound request recycle, and a relays the response
// message as it stands, so it measures 5 (11).
func TestForwardedRoundAllocBudget(t *testing.T) {
	budget := 8.0
	if raceEnabled {
		budget = 15
	}
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	put := req(wire.OpPut, 1, symbol.K(13), []byte("round"))
	get := req(wire.OpGet, 1, symbol.K(13), nil)
	allocs := testing.AllocsPerRun(200, func() {
		if resp, err := c.Do(put, nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put: %+v %v", resp, err)
		}
		if resp, err := c.Do(get, nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("get: %+v %v", resp, err)
		}
	})
	if allocs > budget {
		t.Errorf("forwarded put+get round: %.1f allocs, budget %.0f", allocs, budget)
	}
}

// TestFailedForwardRecordsLinkSpan: a sampled put forwarded over a severed
// link fails, and a's ring still holds the link span naming the peer it
// failed on.
func TestFailedForwardRecordsLinkSpan(t *testing.T) {
	res := rpc.Resilience{Retries: 1, Redial: transport.Backoff{Min: time.Millisecond, Max: 5 * time.Millisecond}}
	tn := bootNet(t, twoHostADF, Config{Resilience: res})
	c := tn.client(t, "a")
	c.EnableSampling()
	tn.sim.Sever("a", "b")
	resp, err := c.Do(req(wire.OpPut, 1, symbol.K(14), []byte("lost")), nil)
	if err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("put over a severed link: %+v %v, want an error response", resp, err)
	}
	var link *wire.Span
	for _, sp := range traceSpans(c.LastTraceID(), tn.nodes["a"]) {
		if sp.Layer == "link" {
			link = &sp
		}
	}
	if link == nil || link.Op != "b" || link.Node != "memo@a" {
		t.Fatalf("a's trace holds link span %+v, want one naming peer b recorded at memo@a", link)
	}
}
