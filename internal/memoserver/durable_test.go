package memoserver

import (
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/durable"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestDedupTokenForwardedTwiceAppliesOnce drives the whole token path
// deterministically: a tokened put dispatched twice from a (simulating the
// retry of a maybe-delivered forward) crosses the a→b peer link, the rpc
// batch-entry extension, and the folder server — and lands exactly once.
func TestDedupTokenForwardedTwiceAppliesOnce(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")

	k := symbol.K(21)
	q := req(wire.OpPut, 1, k, []byte("once")) // folder 1 lives on b
	q.Token = 777
	for i := 0; i < 2; i++ {
		if resp, err := c.Do(q, nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("tokened put %d: %+v %v", i, resp, err)
		}
	}
	fs, ok := tn.nodes["b"].LocalFolderServer(tn.file.App, 1)
	if !ok {
		t.Fatal("no folder server 1 on b")
	}
	if puts, dups := folderSeries(fs, "folder_puts_total"), folderSeries(fs, "folder_dup_puts_total"); puts != 1 || dups != 1 {
		t.Fatalf("after duplicate tokened put: %d puts, %d dedups", puts, dups)
	}
	if got := folderSeries(fs, "folder_memos"); got != 1 {
		t.Fatalf("folder_memos = %d, want 1", got)
	}
}

// TestClientStampsTokensOnPuts: with retries armed, the client generates a
// dedup token for puts (visible as the request's Token after Do), and
// re-issuing the same request object cannot double-deposit.
func TestClientStampsTokensOnPuts(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c, err := DialClientResilient(tn.sim.DialFrom, "a", tn.file.App, rpc.Policy{},
		rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	q := req(wire.OpPut, 0, symbol.K(5), []byte("v"))
	if resp, err := c.Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	if q.Token == 0 {
		t.Fatal("client did not stamp a dedup token on the put")
	}
	// The same request re-sent (what a retry does) is deduplicated.
	if resp, err := c.Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("re-put: %+v %v", resp, err)
	}
	fs, _ := tn.nodes["a"].LocalFolderServer(tn.file.App, 0)
	if got := folderSeries(fs, "folder_memos"); got != 1 {
		t.Fatalf("folder_memos = %d, want 1 (token dedup failed)", got)
	}
	// Destructive reads get tokens too: a re-sent get_skip (what a retry
	// does) is answered from the consumed-take cache with the original's
	// payload instead of sampling the folder again.
	g := req(wire.OpGetSkip, 0, symbol.K(5), nil)
	resp, err := c.Do(g, nil)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("get_skip: %+v %v", resp, err)
	}
	if g.Token == 0 {
		t.Fatal("client did not stamp a dedup token on the get_skip")
	}
	resp2, err := c.Do(g, nil)
	if err != nil || resp2.Status != wire.StatusOK {
		t.Fatalf("re-get_skip: %+v %v", resp2, err)
	}
	if string(resp2.Payload) != "v" {
		t.Fatalf("re-get_skip payload = %q, want the original's %q", resp2.Payload, "v")
	}
	if takes, dups := folderSeries(fs, "folder_takes_total"), folderSeries(fs, "folder_dup_takes_total"); takes != 1 || dups != 1 {
		t.Fatalf("after duplicate tokened take: %d takes, %d dedups", takes, dups)
	}
	// Non-destructive reads still never get tokens.
	w := req(wire.OpGetCopy, 0, symbol.K(5), nil)
	w.Key = symbol.K(5)
	go func() {
		// GetCopy blocks on the now-empty folder; refill it.
		time.Sleep(10 * time.Millisecond)
		_, _ = c.Do(req(wire.OpPut, 0, symbol.K(5), []byte("again")), nil)
	}()
	if _, err := c.Do(w, nil); err != nil {
		t.Fatal(err)
	}
	if w.Token != 0 {
		t.Fatal("client stamped a token on a get_copy")
	}
}

// TestClientRedialsAcrossServerRestart: the application↔memo-server link
// is an rlink like a peer link — when the local memo server dies and comes back,
// the same Client heals without being re-dialed by hand.
func TestClientRedialsAcrossServerRestart(t *testing.T) {
	f, err := adf.Parse(twoHostADF)
	if err != nil {
		t.Fatal(err)
	}
	model := transport.NewNetModel(0)
	for _, l := range f.Links {
		model.SetLink(l.From, l.To, l.Cost)
		if l.Duplex {
			model.SetLink(l.To, l.From, l.Cost)
		}
	}
	sim := transport.NewSim(model)
	start := func() *Node {
		n := NewWithNetwork("a", sim, Config{})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterApp(f); err != nil {
			t.Fatal(err)
		}
		return n
	}
	nb := NewWithNetwork("b", sim, Config{})
	if err := nb.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nb.RegisterApp(f); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nb.Close)

	na := start()
	c, err := DialClientResilient(sim.DialFrom, "a", f.App, rpc.Policy{},
		rpc.Resilience{
			Heartbeat: 100 * time.Millisecond,
			Redial:    transport.Backoff{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond},
			Retries:   2,
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	k := symbol.K(9)
	if resp, err := c.Do(req(wire.OpPut, 0, k, []byte("before")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put before restart: %+v %v", resp, err)
	}
	na.Close()

	// Down: requests fail fast (dial errors after bounded retries), never
	// hang.
	if _, err := c.Do(req(wire.OpPing, 0, symbol.Key{}, nil), nil); err == nil {
		t.Fatal("ping succeeded against a dead memo server")
	}

	na = start()
	t.Cleanup(na.Close)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Do(req(wire.OpPut, 0, k, []byte("after")), nil)
		if err == nil && resp.Status == wire.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never healed after restart: %+v %v", resp, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.Dials < 2 {
		t.Fatalf("client link stats %+v, want >= 2 dials (initial + redial)", st)
	}
}

// TestNodeDurableFolderRecovery: a memo server with DataDir set persists
// its folder servers; a crashed node reopened over the same directory
// serves every acknowledged memo back.
func TestNodeDurableFolderRecovery(t *testing.T) {
	dir := t.TempDir()
	f, err := adf.Parse(twoHostADF)
	if err != nil {
		t.Fatal(err)
	}
	model := transport.NewNetModel(0)
	for _, l := range f.Links {
		model.SetLink(l.From, l.To, l.Cost)
		if l.Duplex {
			model.SetLink(l.To, l.From, l.Cost)
		}
	}
	sim := transport.NewSim(model)
	cfg := Config{DataDir: dir, Durable: durable.Config{}}
	start := func() *Node {
		n := NewWithNetwork("a", sim, cfg)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterApp(f); err != nil {
			t.Fatal(err)
		}
		return n
	}

	na := start()
	c, err := dialClient(sim.DialFrom, "a", f.App)
	if err != nil {
		t.Fatal(err)
	}
	k := symbol.K(31)
	for i := 0; i < 5; i++ {
		if resp, err := c.Do(req(wire.OpPut, 0, k, []byte{byte('a' + i)}), nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put %d: %+v %v", i, resp, err)
		}
	}
	c.Close()
	na.Crash()

	na = start()
	t.Cleanup(na.Close)
	c2, err := dialClient(sim.DialFrom, "a", f.App)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	seen := map[string]bool{}
	for {
		resp, err := c2.Do(req(wire.OpGetSkip, 0, k, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == wire.StatusEmpty {
			break
		}
		seen[string(resp.Payload)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("recovered %d memos through the restarted node, want 5", len(seen))
	}
}
