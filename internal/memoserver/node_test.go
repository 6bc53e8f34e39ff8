package memoserver

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testNet boots memo servers for every host in the ADF over a simulated
// network and registers the app on each.
type testNet struct {
	sim   *transport.Sim
	nodes map[string]*Node
	file  *adf.File
}

func bootNet(t testing.TB, adfText string, cfg Config) *testNet {
	t.Helper()
	f, err := adf.Parse(adfText)
	if err != nil {
		t.Fatal(err)
	}
	if err := adf.Validate(f); err != nil {
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
	tn := &testNet{sim: sim, nodes: make(map[string]*Node), file: f}
	for _, h := range f.Hosts {
		n := NewWithNetwork(h.Name, sim, cfg)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		if err := n.RegisterApp(f); err != nil {
			t.Fatal(err)
		}
		tn.nodes[h.Name] = n
	}
	t.Cleanup(func() {
		for _, n := range tn.nodes {
			n.Close()
		}
	})
	return tn
}

// dialClient connects an application to the memo server on host with the
// default heartbeat and no retries.
func dialClient(dial DialFunc, host, app string) (*Client, error) {
	return DialClientResilient(dial, host, app, rpc.Policy{}, rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat})
}

func (tn *testNet) client(t testing.TB, host string) *Client {
	t.Helper()
	c, err := dialClient(tn.sim.DialFrom, host, tn.file.App)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// twoHost: a and b, one folder server on each.
const twoHostADF = `APP t2
HOSTS
a 1 sun4 1
b 1 sun4 1
FOLDERS
0 a
1 b
PROCESSES
0 boss a
1 worker b
PPC
a <-> b 1
`

// lineADF: a-b-c-d line, folder server only on d: requests from a traverse
// three memo servers.
const lineADF = `APP line
HOSTS
a 1 sun4 1
b 1 sun4 1
c 1 sun4 1
d 1 sun4 1
FOLDERS
0 d
PROCESSES
0 boss a
PPC
a <-> b 1
b <-> c 1
c <-> d 1
`

func req(op wire.Op, folderID int, key symbol.Key, payload []byte) *wire.Request {
	return &wire.Request{Op: op, FolderID: folderID, Key: key, Payload: payload}
}

func TestPingAndRegister(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Wire-level registration of a second app.
	other := strings.Replace(twoHostADF, "APP t2", "APP other", 1)
	if err := c.Register(other); err != nil {
		t.Fatal(err)
	}
	names := tn.nodes["a"].AppNames()
	found := false
	for _, n := range names {
		if n == "other" {
			found = true
		}
	}
	if !found {
		t.Fatalf("apps = %v", names)
	}
}

func TestRegisterBadADF(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	if err := c.Register("HOSTS\nbroken"); err == nil {
		t.Fatal("bad ADF registered")
	}
}

func TestLocalPutGet(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	k := symbol.K(1)
	resp, err := c.Do(req(wire.OpPut, 0, k, []byte("v")), nil)
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	resp, err = c.Do(req(wire.OpGet, 0, k, nil), nil)
	if err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != "v" {
		t.Fatalf("get: %+v %v", resp, err)
	}
	if local, fwd := tn.nodes["a"].localOps.Load(), tn.nodes["a"].forwards.Load(); local != 2 || fwd != 0 {
		t.Fatalf("%d local ops, %d forwards", local, fwd)
	}
}

func TestRemotePutGetForwards(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	k := symbol.K(2)
	// Folder server 1 lives on b; requests from a must be forwarded.
	if resp, err := c.Do(req(wire.OpPut, 1, k, []byte("remote")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	resp, err := c.Do(req(wire.OpGet, 1, k, nil), nil)
	if err != nil || string(resp.Payload) != "remote" {
		t.Fatalf("get: %+v %v", resp, err)
	}
	if tn.nodes["a"].forwards.Load() != 2 {
		t.Fatalf("a forwards = %d want 2", tn.nodes["a"].forwards.Load())
	}
	if tn.nodes["b"].localOps.Load() != 2 {
		t.Fatalf("b localOps = %d want 2", tn.nodes["b"].localOps.Load())
	}
}

func TestMultiHopForwarding(t *testing.T) {
	tn := bootNet(t, lineADF, Config{})
	c := tn.client(t, "a")
	k := symbol.K(3)
	if resp, err := c.Do(req(wire.OpPut, 0, k, []byte("far")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	resp, err := c.Do(req(wire.OpGet, 0, k, nil), nil)
	if err != nil || string(resp.Payload) != "far" {
		t.Fatalf("get: %+v %v", resp, err)
	}
	// Every intermediate hop forwarded both requests.
	for _, h := range []string{"a", "b", "c"} {
		if f := tn.nodes[h].forwards.Load(); f != 2 {
			t.Fatalf("node %s forwards = %d want 2", h, f)
		}
	}
	// Traffic flowed only on topology links; a never dialed d directly.
	if msgs, _ := tn.sim.Model().LinkTraffic("a", "d"); msgs != 0 {
		t.Fatalf("off-topology traffic a->d: %d msgs", msgs)
	}
	if msgs, _ := tn.sim.Model().LinkTraffic("a", "b"); msgs == 0 {
		t.Fatal("no traffic on a->b")
	}
}

func TestBlockingGetAcrossHosts(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	getter := tn.client(t, "a")
	putter := tn.client(t, "b")
	k := symbol.K(4)
	got := make(chan *wire.Response, 1)
	go func() {
		resp, err := getter.Do(req(wire.OpGet, 1, k, nil), nil)
		if err == nil {
			got <- resp
		}
	}()
	select {
	case <-got:
		t.Fatal("get returned before put")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := putter.Do(req(wire.OpPut, 1, k, []byte("wake")), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-got:
		if string(resp.Payload) != "wake" {
			t.Fatalf("payload %q", resp.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked get never woke across hosts")
	}
}

func TestCancelBlockedRemoteGet(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Do(req(wire.OpGet, 1, symbol.K(5), nil), cancel)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errc:
		if err != wire.ErrCanceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock client")
	}
}

func TestUnknownAppAndFolder(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	q := req(wire.OpPut, 0, symbol.K(1), nil)
	q.App = "ghost"
	resp, err := c.Do(q, nil)
	if err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("unknown app: %+v %v", resp, err)
	}
	resp, err = c.Do(req(wire.OpPut, 99, symbol.K(1), nil), nil)
	if err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("unknown folder: %+v %v", resp, err)
	}
}

func TestPutDelayedReleaseCrossesServers(t *testing.T) {
	// Trigger folder on a (id 0), destination key placed wherever the app's
	// placement map sends it. The release is routed via forwardRelease.
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	trigger := symbol.K(10)
	dest := symbol.K(11)
	// Find where dest is placed so we can read it back.
	app, _ := tn.nodes["a"].lookupApp("t2")
	destServer := app.Place.Place(dest).ID

	q := req(wire.OpPutDelayed, 0, trigger, []byte("released"))
	q.Key2 = dest
	if resp, err := c.Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put_delayed: %+v %v", resp, err)
	}
	if resp, err := c.Do(req(wire.OpPut, 0, trigger, []byte("trig")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("trigger put: %+v %v", resp, err)
	}
	// The release is asynchronous; a blocking get will see it.
	resp, err := c.Do(req(wire.OpGet, destServer, dest, nil), nil)
	if err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != "released" {
		t.Fatalf("released get: %+v %v", resp, err)
	}
}

func TestWatchAcrossHosts(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	watcher := tn.client(t, "a")
	putter := tn.client(t, "b")
	k := symbol.K(12)
	woke := make(chan *wire.Response, 1)
	go func() {
		q := &wire.Request{Op: wire.OpWatch, FolderID: 1, Keys: []symbol.Key{k}}
		resp, err := watcher.Do(q, nil)
		if err == nil {
			woke <- resp
		}
	}()
	time.Sleep(20 * time.Millisecond)
	putter.Do(req(wire.OpPut, 1, k, []byte("x")), nil)
	select {
	case resp := <-woke:
		if resp.Status != wire.StatusWake || !resp.Key.Equal(k) {
			t.Fatalf("watch resp: %+v", resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never fired")
	}
}

func TestConcurrentClientsStress(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	const clients = 8
	const opsEach = 50
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		host := "a"
		if i%2 == 1 {
			host = "b"
		}
		c := tn.client(t, host)
		go func(i int, c *Client) {
			defer wg.Done()
			k := symbol.K(symbol.Symbol(100 + i))
			fid := i % 2
			for j := 0; j < opsEach; j++ {
				payload := []byte(fmt.Sprintf("%d-%d", i, j))
				if resp, err := c.Do(req(wire.OpPut, fid, k, payload), nil); err != nil || resp.Status != wire.StatusOK {
					t.Errorf("put: %+v %v", resp, err)
					return
				}
				resp, err := c.Do(req(wire.OpGet, fid, k, nil), nil)
				if err != nil || resp.Status != wire.StatusOK {
					t.Errorf("get: %+v %v", resp, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
}

func TestNodeCloseRejectsWork(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	tn.nodes["a"].Close()
	// Requests now fail (either connection error or error response).
	resp, err := c.Do(req(wire.OpPut, 0, symbol.K(1), nil), nil)
	if err == nil && resp.Status == wire.StatusOK {
		t.Fatal("request succeeded after Close")
	}
}

func TestReregisterSameAppKeepsState(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	c := tn.client(t, "a")
	k := symbol.K(20)
	c.Do(req(wire.OpPut, 0, k, []byte("keep")), nil)
	// Second registration (another process starting) must not clear folders.
	if err := tn.nodes["a"].RegisterApp(tn.file); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req(wire.OpGetSkip, 0, k, nil), nil)
	if err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != "keep" {
		t.Fatalf("memo lost on re-register: %+v %v", resp, err)
	}
}

// TestMultipleApplicationsShareServers verifies §4.3: "the same memo and
// folder servers can be shared over the network" by multiple concurrently
// registered applications, with folder/application name combinations
// keeping their data disjoint.
func TestMultipleApplicationsShareServers(t *testing.T) {
	tn := bootNet(t, twoHostADF, Config{})
	// Register a second application with the same hosts and folder ids.
	other := strings.Replace(twoHostADF, "APP t2", "APP second", 1)
	f2, err := adf.Parse(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tn.nodes {
		if err := n.RegisterApp(f2); err != nil {
			t.Fatal(err)
		}
	}
	c1 := tn.client(t, "a") // app t2
	c2, err := dialClient(tn.sim.DialFrom, "a", "second")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })

	// Identical key and folder id in both apps.
	k := symbol.K(77, 1)
	if r, err := c1.Do(req(wire.OpPut, 0, k, []byte("from-t2")), nil); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("t2 put: %+v %v", r, err)
	}
	if r, err := c2.Do(req(wire.OpPut, 0, k, []byte("from-second")), nil); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("second put: %+v %v", r, err)
	}
	// Each app sees only its own memo.
	r1, err := c1.Do(req(wire.OpGet, 0, k, nil), nil)
	if err != nil || string(r1.Payload) != "from-t2" {
		t.Fatalf("t2 get: %+v %v", r1, err)
	}
	r2, err := c2.Do(req(wire.OpGet, 0, k, nil), nil)
	if err != nil || string(r2.Payload) != "from-second" {
		t.Fatalf("second get: %+v %v", r2, err)
	}
	// Both folders are now empty: no cross-application leakage.
	if r, _ := c1.Do(req(wire.OpGetSkip, 0, k, nil), nil); r.Status != wire.StatusEmpty {
		t.Fatalf("t2 leftover: %+v", r)
	}
	if r, _ := c2.Do(req(wire.OpGetSkip, 0, k, nil), nil); r.Status != wire.StatusEmpty {
		t.Fatalf("second leftover: %+v", r)
	}
	// And "by using common application names, different programs will be
	// able to communicate": a third client sharing app name t2 sees t2's
	// folders.
	c3, err := dialClient(tn.sim.DialFrom, "b", "t2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c3.Close() })
	if r, err := c1.Do(req(wire.OpPut, 0, k, []byte("shared")), nil); err != nil || r.Status != wire.StatusOK {
		t.Fatalf("shared put: %+v %v", r, err)
	}
	r3, err := c3.Do(req(wire.OpGet, 0, k, nil), nil)
	if err != nil || string(r3.Payload) != "shared" {
		t.Fatalf("cross-program get: %+v %v", r3, err)
	}
}
