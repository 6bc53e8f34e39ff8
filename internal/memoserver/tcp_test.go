package memoserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/symbol"
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

func (t *tcpMapped) Name() string { return "tcp-mapped" }

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
