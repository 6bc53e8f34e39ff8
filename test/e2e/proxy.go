// Package e2e is the chaos harness: one seeded runner drives a weighted
// action mix through both the client library and the CLI of a durable
// three-node cluster, and checks a global exactly-once/convergence oracle
// at the end of every run. The cluster is either the real memoserverd and
// memo binaries over TCP, which the package compiles, or the in-process
// cluster over transport.Sim. See DESIGN.md §11 for the architecture and
// the invariants.
package e2e

import (
	"io"
	"net"
	"sync"
)

// Proxy is a TCP forwarder standing in for one directed inter-node link
// (the -peer mapping of one daemon points at it instead of at the real
// listener). Sever drops every live connection and refuses new ones —
// dial still succeeds at the TCP level and then dies, which is the
// messiest failure mode for the rpc layer: the peer looks up, then the
// first frame write faults. Heal restores forwarding.
type Proxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	severed bool
	conns   map[net.Conn]struct{}
	closed  bool
}

// NewProxy starts a proxy on addr forwarding to target.
func NewProxy(addr, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.accept()
	return p, nil
}

// Addr is the proxy's listen address, for daemons' -peer flags.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.severed || p.closed {
			p.mu.Unlock()
			c.Close()
			continue
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		go p.pipe(c)
	}
}

func (p *Proxy) pipe(c net.Conn) {
	defer p.drop(c)
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.severed || p.closed {
		p.mu.Unlock()
		up.Close()
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()
	defer p.drop(up)
	done := make(chan struct{}, 2)
	go func() { _, _ = io.Copy(up, c); done <- struct{}{} }()
	go func() { _, _ = io.Copy(c, up); done <- struct{}{} }()
	// Either direction closing tears down both: half-open links are not a
	// failure mode this harness models.
	<-done
}

func (p *Proxy) drop(c net.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// Sever cuts the link: every live connection dies now, new ones are
// accepted and immediately closed.
func (p *Proxy) Sever() {
	p.mu.Lock()
	p.severed = true
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
}

// Heal restores forwarding for new connections (the daemons' redialers
// bring the rpc links back).
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.severed = false
	p.mu.Unlock()
}

// Close shuts the proxy down for good.
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	p.ln.Close()
}
