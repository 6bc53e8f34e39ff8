package memoserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tcpMapped adapts the TCP transport to logical host addresses, as
// cmd/memoserverd does: "host/memo" resolves through a peer table. The
// table is filled as listeners come up with kernel-assigned ports.
type tcpMapped struct {
	inner *transport.TCP
	mu    sync.Mutex
	addrs map[string]string // logical host -> tcp addr
}

func newTCPMapped() *tcpMapped {
	return newTCPMappedWith(transport.NewTCP())
}

// newTCPMappedWith maps logical hosts over an explicit TCP transport (the
// resilience tests pass one with IdleTimeout armed).
func newTCPMappedWith(tcp *transport.TCP) *tcpMapped {
	return &tcpMapped{inner: tcp, addrs: make(map[string]string)}
}

// DialFrom makes tcpMapped a Network; TCP dials ignore the source host.
func (t *tcpMapped) DialFrom(_, addr string) (transport.Conn, error) { return t.Dial(addr) }

func (t *tcpMapped) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.addrs[transport.HostOf(addr)] = l.Addr()
	t.mu.Unlock()
	return l, nil
}

func (t *tcpMapped) Dial(addr string) (transport.Conn, error) {
	host := transport.HostOf(addr)
	t.mu.Lock()
	real, ok := t.addrs[host]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no mapping for %q", host)
	}
	return t.inner.Dial(real)
}

// TestRealTCPDeployment runs two memo servers over genuine TCP sockets —
// the cmd/memoserverd deployment — and exercises registration, local and
// forwarded operations, blocking gets, and watches across the real network
// stack.
func TestRealTCPDeployment(t *testing.T) {
	net := newTCPMapped()
	f, err := adf.Parse(twoHostADF)
	if err != nil {
		t.Fatal(err)
	}

	var nodes []*Node
	for _, h := range f.Hosts {
		n := NewWithDialer(h.Name, net, Config{})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})

	// Register over the wire, as a remote launcher would (§4.4).
	dial := func(_, addr string) (transport.Conn, error) { return net.Dial(addr) }
	clients := make([]*Client, len(f.Hosts))
	for i, h := range f.Hosts {
		c, err := dialClient(dial, h.Name, f.App)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Register(adf.Format(f)); err != nil {
			t.Fatalf("register on %s: %v", h.Name, err)
		}
		clients[i] = c
	}

	k := symbol.K(42, 7)
	// Local put on a (folder 0), remote get from b's client: the request
	// forwards b→a over TCP.
	if resp, err := clients[0].Do(req(wire.OpPut, 0, k, []byte("over tcp")), nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	resp, err := clients[1].Do(req(wire.OpGet, 0, k, nil), nil)
	if err != nil || resp.Status != wire.StatusOK || string(resp.Payload) != "over tcp" {
		t.Fatalf("remote get: %+v %v", resp, err)
	}

	// Blocking get across real sockets.
	woke := make(chan *wire.Response, 1)
	go func() {
		r, err := clients[1].Do(req(wire.OpGet, 1, symbol.K(9), nil), nil)
		if err == nil {
			woke <- r
		}
	}()
	select {
	case <-woke:
		t.Fatal("blocking get returned early")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := clients[0].Do(req(wire.OpPut, 1, symbol.K(9), []byte("wake")), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-woke:
		if string(r.Payload) != "wake" {
			t.Fatalf("payload %q", r.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocking get over TCP never woke")
	}

	// Concurrency over real sockets.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := clients[i%2]
			key := symbol.K(symbol.Symbol(100 + i))
			for j := 0; j < 25; j++ {
				if resp, err := c.Do(req(wire.OpPut, i%2, key, []byte{byte(j)}), nil); err != nil || resp.Status != wire.StatusOK {
					t.Errorf("put: %+v %v", resp, err)
					return
				}
				if resp, err := c.Do(req(wire.OpGet, i%2, key, nil), nil); err != nil || resp.Status != wire.StatusOK {
					t.Errorf("get: %+v %v", resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestMemoSizeBoundOverTCP: nothing fragments a frame, so rpc.MaxMessage
// bounds a memo. Through a forward over TCP (client → b → folder 0 on a),
// with retries armed on every link: a memo past the old fragmenting
// threshold round-trips, the largest accepted memo round-trips sampled
// (both nodes record its trace), and one byte more
// fails with transport.ErrTooLarge before anything is sent — no retry, no
// fault, nothing stored — on the client link and on the peer link, and the
// same client link serves the next call.
func TestMemoSizeBoundOverTCP(t *testing.T) {
	res := rpc.Resilience{Heartbeat: rpc.DefaultHeartbeat, Retries: 2}
	nodes, _ := bootTCPPair(t, Config{Resilience: res})
	addr := nodes[1].listener.Addr()
	c, err := DialClientResilient(func(_, _ string) (transport.Conn, error) { return transport.NewTCP().Dial(addr) },
		"b", "t2", rpc.Policy{}, res)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	k := symbol.K(5)
	roundTrip := func(payload []byte) {
		t.Helper()
		if resp, err := c.Do(req(wire.OpPut, 0, k, payload), nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put of %d bytes: %+v %v", len(payload), resp, err)
		}
		resp, err := c.Do(req(wire.OpGet, 0, k, nil), nil)
		if err != nil || resp.Status != wire.StatusOK || !bytes.Equal(resp.Payload, payload) {
			t.Fatalf("get of a %d-byte memo: status %v, %d bytes, %v", len(payload), resp.Status, len(resp.Payload), err)
		}
	}
	roundTrip(bytes.Repeat([]byte{7}, 200<<10))

	// The largest payload whose put request encodes to exactly MaxMessage.
	q := req(wire.OpPut, 0, k, nil)
	q.App = "t2"
	n := rpc.MaxMessage - len(wire.EncodeRequest(q))
	for n+len(wire.EncodeRequest(q))-1+len(binary.AppendUvarint(nil, uint64(n))) > rpc.MaxMessage {
		n--
	}
	q.Payload = bytes.Repeat([]byte{9}, n+1)
	if got := len(wire.EncodeRequest(q)); got != rpc.MaxMessage+1 {
		t.Fatalf("one byte past the largest memo encodes to %d bytes, want %d", got, rpc.MaxMessage+1)
	}
	largest := q.Payload[:n]
	c.EnableSampling()
	roundTrip(largest)
	for _, node := range nodes {
		if got := node.Tracer().Sampled.Get(c.LastTraceID()); len(got) == 0 {
			t.Fatalf("host %s recorded no sample for the sampled get of the largest memo", node.Host)
		}
	}

	_, err = c.Do(req(wire.OpPut, 0, k, q.Payload), nil)
	var le *rpc.LinkError
	if !errors.Is(err, transport.ErrTooLarge) || errors.As(err, &le) {
		t.Fatalf("put of %d bytes: %v, want transport.ErrTooLarge and no LinkError", len(q.Payload), err)
	}
	// The peer link refuses it the same way when b forwards it.
	if resp := nodes[1].Dispatch(q, nil); resp.Status != wire.StatusErr ||
		!strings.Contains(resp.Err, transport.ErrTooLarge.Error()) {
		t.Fatalf("forwarded oversized put: %+v", resp)
	}
	if resp, err := c.Do(req(wire.OpGetSkip, 0, k, nil), nil); err != nil || resp.Status != wire.StatusEmpty {
		t.Fatalf("get_skip after the refused puts: %+v %v, want empty", resp, err)
	}
	if st := c.Stats(); st.Retried != 0 || st.Faults != 0 || st.Dials != 1 {
		t.Fatalf("client link %+v, want one dial, no retry, no fault", st)
	}
	for _, node := range nodes {
		if got := node.retried.Load(); got != 0 {
			t.Fatalf("host %s retried %d forwards", node.Host, got)
		}
		for _, smp := range nodeExposition(node) {
			if (smp.Name == "node_link_faults_total" && smp.Value != 0) || (smp.Name == "node_link_dials_total" && smp.Value != 1) {
				t.Fatalf("host %s: %s%s = %v, want one dial, no fault", node.Host, smp.Name, smp.Labels, smp.Value)
			}
		}
	}
}

// quiesce waits until the process's goroutine count holds still for 100ms
// and returns it.
func quiesce(t *testing.T) int {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	t.Fatalf("goroutine count never settled (last %d)", n)
	return 0
}

func inboundConns(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.inbound)
}

// TestInboundConnsRetire: an accepted conn is served by two goroutines —
// rpc.Serve on a thread of the node's cache and its response sender — and
// a dialed client link runs three: receive loop, request sender and
// heartbeat. When the client goes, the node forgets its conn: after 200
// clients that connect, ping and close, the inbound set is empty and the
// goroutine count is back where it started.
func TestInboundConnsRetire(t *testing.T) {
	net := newTCPMapped()
	n := NewWithDialer("a", net, Config{Cache: threadcache.Config{IdleTimeout: 5 * time.Millisecond}})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	dial := func(_, addr string) (transport.Conn, error) { return net.Dial(addr) }
	visit := func() {
		t.Helper()
		c, err := dialClient(dial, "a", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	visit() // start whatever the runtime starts lazily
	base := quiesce(t)

	raw, err := net.Dial(MemoAddr("a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := quiesce(t) - base; got != 2 {
		t.Fatalf("an accepted conn costs %d goroutines, want 2", got)
	}
	raw.Close()
	c, err := dialClient(dial, "a", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := quiesce(t) - base; got != 2+3 {
		t.Fatalf("a dialed link and its accepted end, serving, cost %d goroutines, want 2+3", got)
	}
	c.Close()

	for i := 0; i < 200; i++ {
		visit()
	}
	if got := quiesce(t); got > base || inboundConns(n) != 0 {
		t.Fatalf("after 200 clients came and went: %d goroutines (baseline %d), %d inbound conns", got, base, inboundConns(n))
	}
}
