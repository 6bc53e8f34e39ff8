package memoserver

import (
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// resilientClient dials a client over the test net's Sim (so client links
// are severable too) with resilience armed.
func resilientClient(t testing.TB, tn *testNet, host string, res rpc.Resilience) *Client {
	t.Helper()
	c, err := DialClientResilient(tn.sim.DialFrom, host, tn.file.App, rpc.Policy{}, res)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestForwardFailsFastAndRedialsAfterSever: severing the a—b link makes
// forwarded calls fail with an error response (not hang), and once the link
// is restored the peer table transparently re-dials — no restart, no manual
// intervention.
func TestForwardFailsFastAndRedialsAfterSever(t *testing.T) {
	res := rpc.Resilience{
		Heartbeat: 100 * time.Millisecond,
		Redial:    transport.Backoff{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Retries:   2,
	}
	tn := bootNet(t, twoHostADF, Config{Resilience: res})
	c := resilientClient(t, tn, "a", res)

	k := symbol.K(7)
	// Folder 1 lives on b: this put forwards a→b.
	if resp, err := c.Do(req(wire.OpPut, 1, k, []byte("before")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put before sever: %+v %v", resp, err)
	}

	// Park a blocking get on an empty folder across the link, then sever:
	// the call must fail fast with a link error, not block forever.
	parked := make(chan *wire.Response, 1)
	go func() {
		resp, err := c.Do(req(wire.OpGet, 1, symbol.K(99), nil), nil)
		if err == nil {
			parked <- resp
		}
	}()
	time.Sleep(20 * time.Millisecond) // let it reach b and block
	tn.sim.Sever("a", "b")
	select {
	case resp := <-parked:
		if resp.Status != wire.StatusErr {
			t.Fatalf("parked get across severed link: %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked get hung after its link was severed")
	}

	// While severed, forwards fail (after their bounded retries).
	if resp, err := c.Do(req(wire.OpPut, 1, k, []byte("during")), nil); err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("put during sever: %+v %v", resp, err)
	}

	tn.sim.Restore("a", "b")
	// The next forward re-dials under backoff and succeeds. Allow a few
	// tries: the redial schedule may still be backing off.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Do(req(wire.OpPut, 1, k, []byte("after")), nil)
		if err == nil && resp.Status == wire.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("forward never recovered after restore: %+v %v", resp, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tn.nodes["a"].retried.Load(); got == 0 {
		t.Fatalf("node retried %d calls, want > 0 (transparent retries never fired)", got)
	}
}

// TestReleaseToDownDestinationHiddenAgain: a put_delayed value released
// toward a destination that stays unreachable past the link's retries is
// releasable again from its trigger folder, not stranded: a later trigger,
// with the link still cut, releases it a second time, and once the link is
// back the value lands exactly once.
func TestReleaseToDownDestinationHiddenAgain(t *testing.T) {
	res := rpc.Resilience{
		Heartbeat: 100 * time.Millisecond,
		Redial:    transport.Backoff{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Retries:   2,
	}
	tn := bootNet(t, twoHostADF, Config{Resilience: res})
	c := resilientClient(t, tn, "a", res)
	app, _ := tn.nodes["a"].lookupApp(tn.file.App)
	dest := symbol.K(11)
	for app.Place.Place(dest).Host != "b" {
		dest.S++
	}
	trigger := symbol.K(10) // folder 0, on a
	trigFS, _ := tn.nodes["a"].LocalFolderServer(tn.file.App, 0)
	destFS, _ := tn.nodes["b"].LocalFolderServer(tn.file.App, app.Place.Place(dest).ID)
	put := func(q *wire.Request) {
		t.Helper()
		if resp, err := c.Do(q, nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("%v: %+v %v", q.Op, resp, err)
		}
	}

	q := req(wire.OpPutDelayed, 0, trigger, []byte("precious"))
	q.Key2 = dest
	put(q)
	tn.sim.Sever("a", "b")
	// A fresh request each time: the client stamps a dedup token on it.
	trig := func() { put(req(wire.OpPut, 0, trigger, []byte("trig"))) }
	trig()
	// A trigger releases only entries not in flight, and a failed delivery
	// clears the mark: keep triggering, link still cut, until one releases
	// the entry a second time.
	deadline := time.Now().Add(5 * time.Second)
	for folderSeries(trigFS, "folder_released_total") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("release to an unreachable destination never became releasable again")
		}
		time.Sleep(5 * time.Millisecond)
		trig()
	}
	if got := folderSeries(destFS, "folder_memos"); got != 0 {
		t.Fatalf("destination holds %d memos across the cut", got)
	}

	// The second delivery may land once the link is redialed, or fail and
	// wait for a trigger: keep triggering until the destination holds it.
	tn.sim.Restore("a", "b")
	for folderSeries(destFS, "folder_memos") != 1 || folderSeries(trigFS, "folder_delayed_hidden") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("re-release after restore: destination memos %d, hidden %d, want 1 and 0",
				folderSeries(destFS, "folder_memos"), folderSeries(trigFS, "folder_delayed_hidden"))
		}
		trig()
		time.Sleep(5 * time.Millisecond)
	}
	if v, ok, err := destFS.Store().GetSkip(dest); err != nil || !ok || string(v) != "precious" {
		t.Fatalf("destination holds %q %v %v, want the released value", v, ok, err)
	}
	if got := folderSeries(destFS, "folder_memos"); got != 0 {
		t.Fatalf("destination holds %d more copies of the released value", got)
	}
}

// TestCancelAfterMaybeSentReportsLinkError: "canceled" is a claim that
// nothing was consumed. A forwarded get whose link died with the request
// possibly executed, and whose caller cancels while the link is still being
// re-dialed, must report the link failure (outcome unknown), not canceled.
func TestCancelAfterMaybeSentReportsLinkError(t *testing.T) {
	res := rpc.Resilience{
		Heartbeat: 100 * time.Millisecond,
		Redial:    transport.Backoff{Min: 5 * time.Millisecond, Max: 20 * time.Millisecond},
		Retries:   1 << 20, // still re-dialing when the cancel arrives
	}
	tn := bootNet(t, twoHostADF, Config{Resilience: res})
	c := resilientClient(t, tn, "a", rpc.Resilience{Heartbeat: 100 * time.Millisecond})

	cancel := make(chan struct{})
	type result struct {
		resp *wire.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		// Folder 1 lives on b: the get forwards a→b and parks there.
		resp, err := c.Do(req(wire.OpGet, 1, symbol.K(99), nil), cancel)
		done <- result{resp, err}
	}()
	fs, _ := tn.nodes["b"].LocalFolderServer(tn.file.App, 1)
	awaitWaiters(t, fs, 1)
	tn.sim.Sever("a", "b")
	time.Sleep(30 * time.Millisecond) // the forward has failed once and is re-dialing
	close(cancel)
	select {
	case r := <-done:
		if r.err != nil || r.resp.Status != wire.StatusErr {
			t.Fatalf("cancel after a maybe-sent link failure: %+v %v, want an error response (outcome unknown)", r.resp, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled forward still re-dialing after 2s")
	}
}

// TestWatchSurvivesIdleTimeoutOverTCP is the acceptance criterion for the
// heartbeat layer: with TCP.IdleTimeout armed on every link and heartbeats
// on, a Watch parked across hosts — client link and peer link both
// legitimately silent — survives ≥ 10× the idle timeout and still fires.
func TestWatchSurvivesIdleTimeoutOverTCP(t *testing.T) {
	const (
		idle = 150 * time.Millisecond
		hb   = 50 * time.Millisecond
		park = 10 * idle
	)
	net := newTCPMappedWith(&transport.TCP{IdleTimeout: idle})
	f, err := adf.Parse(twoHostADF)
	if err != nil {
		t.Fatal(err)
	}
	res := rpc.Resilience{Heartbeat: hb}
	var nodes []*Node
	for _, h := range f.Hosts {
		n := NewWithNetwork(h.Name, net, Config{Resilience: res})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterApp(f); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	ca, err := DialClientResilient(net.DialFrom, "a", f.App, rpc.Policy{}, res)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ca.Close() })
	cb, err := DialClientResilient(net.DialFrom, "b", f.App, rpc.Policy{}, res)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })

	// Watch folder 0 (on a) from b: the wait parks on a, with the b→a peer
	// link and the client→b link both silent for the duration.
	k := symbol.K(31)
	woke := make(chan *wire.Response, 1)
	watchErr := make(chan error, 1)
	go func() {
		resp, err := cb.Do(&wire.Request{Op: wire.OpWatch, FolderID: 0, Keys: []symbol.Key{k}}, nil)
		if err != nil {
			watchErr <- err
			return
		}
		if resp.Status == wire.StatusErr {
			watchErr <- &clientStatusErr{msg: resp.Err}
			return
		}
		woke <- resp
	}()
	select {
	case err := <-watchErr:
		t.Fatalf("watch died during the silent window: %v (idle timeout fired through the heartbeats?)", err)
	case resp := <-woke:
		t.Fatalf("watch fired early: %+v", resp)
	case <-time.After(park):
	}
	if resp, err := ca.Do(req(wire.OpPut, 0, k, []byte("wake")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("waking put: %+v %v", resp, err)
	}
	select {
	case resp := <-woke:
		if resp.Status != wire.StatusWake {
			t.Fatalf("watch response: %+v", resp)
		}
	case err := <-watchErr:
		t.Fatalf("watch failed at wake time: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("watch never fired after the put")
	}
}

type clientStatusErr struct{ msg string }

func (e *clientStatusErr) Error() string { return e.msg }

// BenchmarkNodeLocalFastPath times a put+get_skip round on the local path
// and on the forwarded remote path.
func BenchmarkNodeLocalFastPath(b *testing.B) {
	run := func(b *testing.B, folderID int) {
		tn := bootNet(b, twoHostADF, Config{})
		c, err := dialClient(tn.sim.DialFrom, "a", tn.file.App)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		k := symbol.K(9)
		payload := []byte("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp, err := c.Do(req(wire.OpPut, folderID, k, payload), nil); err != nil || resp.Status != wire.StatusOK {
				b.Fatalf("put: %+v %v", resp, err)
			}
			if resp, err := c.Do(req(wire.OpGetSkip, folderID, k, nil), nil); err != nil || resp.Status != wire.StatusOK {
				b.Fatalf("get_skip: %+v %v", resp, err)
			}
		}
	}
	// Folder 0 is local to a; folder 1 forwards to b.
	b.Run("local", func(b *testing.B) { run(b, 0) })
	b.Run("remote", func(b *testing.B) { run(b, 1) })
}
