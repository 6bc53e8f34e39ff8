package transport

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// preciseSleep waits d with sub-millisecond accuracy. The kernel timer wheel
// rounds short sleeps up to ~1ms, which would multiply every simulated link
// delay; instead we sleep coarsely for the bulk and spin (yielding) for the
// tail. Link delays are the simulator's unit of realism, so accuracy is
// worth the spin.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if coarse := d - 1500*time.Microsecond; coarse > 0 {
		time.Sleep(coarse)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// NetModel describes the simulated network: per-link latency multipliers
// keyed by (source host, destination host). Links are those declared in the
// ADF PPC section; cost scales the base latency. The model also counts
// per-link traffic so experiments can verify where messages actually flowed.
type NetModel struct {
	// BaseLatency is the one-way delay of a cost-1 link.
	BaseLatency time.Duration

	mu    sync.RWMutex
	costs map[linkKey]float64
	count map[linkKey]*linkCounter
}

type linkKey struct{ src, dst string }

type linkCounter struct {
	msgs  atomic.Int64
	bytes atomic.Int64
}

// NewNetModel returns a model with the given base one-way latency.
func NewNetModel(base time.Duration) *NetModel {
	return &NetModel{
		BaseLatency: base,
		costs:       make(map[linkKey]float64),
		count:       make(map[linkKey]*linkCounter),
	}
}

// SetLink declares a directed link with a cost multiplier. Declare both
// directions for the ADF's duplex ("<->") connections.
func (m *NetModel) SetLink(src, dst string, cost float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.costs[linkKey{src, dst}] = cost
	if _, ok := m.count[linkKey{src, dst}]; !ok {
		m.count[linkKey{src, dst}] = &linkCounter{}
	}
}

// LinkCost reports the cost of the directed link, and whether it exists.
// Local delivery (src == dst) always exists with cost 0.
func (m *NetModel) LinkCost(src, dst string) (float64, bool) {
	if src == dst {
		return 0, true
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.costs[linkKey{src, dst}]
	return c, ok
}

// Delay computes the one-way delay of a message over the directed link.
func (m *NetModel) Delay(src, dst string) time.Duration {
	cost, ok := m.LinkCost(src, dst)
	if !ok || cost == 0 {
		return 0
	}
	return time.Duration(float64(m.BaseLatency) * cost)
}

// Record notes one message on the directed link.
func (m *NetModel) Record(src, dst string, size int) {
	m.mu.RLock()
	c := m.count[linkKey{src, dst}]
	m.mu.RUnlock()
	if c == nil {
		m.mu.Lock()
		c = m.count[linkKey{src, dst}]
		if c == nil {
			c = &linkCounter{}
			m.count[linkKey{src, dst}] = c
		}
		m.mu.Unlock()
	}
	c.msgs.Add(1)
	c.bytes.Add(int64(size))
}

// LinkTraffic reports messages and bytes recorded on the directed link.
func (m *NetModel) LinkTraffic(src, dst string) (msgs, bytes int64) {
	m.mu.RLock()
	c := m.count[linkKey{src, dst}]
	m.mu.RUnlock()
	if c == nil {
		return 0, 0
	}
	return c.msgs.Load(), c.bytes.Load()
}

// ErrSevered reports a connection or dial refused because Sim.Sever cut its
// link.
var ErrSevered = errors.New("transport: link severed (fault injection)")

// mInjections counts the conn ends a cut refused at dial or accept, or
// closed when Sever ran — how much damage a drill really did. No daemon
// runs on Sim, so it is registered nowhere: the sim tests read it directly.
var mInjections obs.Counter

// Sim is the in-process network: an InProc namespace whose addresses are
// "host/service", with the NetModel's per-link latency and traffic counters
// applied to every send, and links that tests can cut. A dial names its
// source host (DialFrom), and the accepted end learns it at connect time, so
// both directions of a conn know their link without stamping messages.
//
// Sever and Restore are the fault injection the resilience tests drive:
// severing a host pair closes every live conn between the two hosts — both
// ends fail as after a reset — and refuses new conns between them with
// ErrSevered until Restore, which exercises reconnect-with-backoff and
// fail-fast forwarding.
type Sim struct {
	inner *InProc
	model *NetModel

	mu      sync.Mutex
	severed map[[2]string]bool
	conns   map[*simConn]struct{}
}

// NewSim returns a simulated transport over a fresh in-process namespace.
func NewSim(model *NetModel) *Sim {
	return &Sim{
		inner:   NewInProc(),
		model:   model,
		severed: make(map[[2]string]bool),
		conns:   make(map[*simConn]struct{}),
	}
}

// Model exposes the network model (for traffic assertions).
func (s *Sim) Model() *NetModel { return s.model }

// HostOf extracts the host part of a sim address ("host/service" → "host").
func HostOf(addr string) string {
	if i := strings.IndexByte(addr, '/'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// pairKey normalizes an unordered host pair.
func pairKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Sever cuts the link between hosts a and b: every live conn between them
// is closed, and new ones are refused with ErrSevered until Restore.
func (s *Sim) Sever(a, b string) {
	k := pairKey(a, b)
	s.mu.Lock()
	s.severed[k] = true
	var victims []*simConn
	for c := range s.conns {
		if pairKey(c.local, c.remote) == k {
			victims = append(victims, c)
			delete(s.conns, c)
		}
	}
	s.mu.Unlock()
	mInjections.Add(int64(len(victims)))
	for _, c := range victims {
		_ = c.Conn.Close()
	}
}

// Restore lets the pair connect again. Conns killed by Sever stay dead —
// recovery is the redialer's job, which is the point.
func (s *Sim) Restore(a, b string) {
	s.mu.Lock()
	delete(s.severed, pairKey(a, b))
	s.mu.Unlock()
}

// track registers c so a later Sever finds it, or refuses it if its pair is
// cut. It runs under the lock Sever takes, so no conn slips past a cut.
func (s *Sim) track(c *simConn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.severed[pairKey(c.local, c.remote)] {
		mInjections.Inc()
		return ErrSevered
	}
	s.conns[c] = struct{}{}
	return nil
}

// Listen implements Transport.
func (s *Sim) Listen(addr string) (Listener, error) {
	l, err := s.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &simListener{Listener: l, sim: s}, nil
}

// Dial implements Transport. The caller's host is taken from the target
// address's host part, i.e. a same-host dial; use DialFrom for remote dials.
func (s *Sim) Dial(addr string) (Conn, error) {
	return s.DialFrom(HostOf(addr), addr)
}

// DialFrom connects to addr with the caller located on srcHost, so link
// delays apply in both directions.
func (s *Sim) DialFrom(srcHost, addr string) (Conn, error) {
	dstHost := HostOf(addr)
	if srcHost != dstHost {
		if _, ok := s.model.LinkCost(srcHost, dstHost); !ok {
			return nil, ErrNoRoute(srcHost + "->" + dstHost)
		}
	}
	inner, err := s.inner.dial(srcHost, addr)
	if err != nil {
		return nil, err
	}
	c := &simConn{Conn: inner, sim: s, local: srcHost, remote: dstHost}
	if err := s.track(c); err != nil {
		_ = inner.Close()
		return nil, err
	}
	return c, nil
}

// ErrNoRoute reports a dial between hosts with no declared link. The paper's
// ADF "allows the user to define and restrict communication between hosts";
// dialing outside the logical topology is an error, not a fallback.
type ErrNoRoute string

func (e ErrNoRoute) Error() string { return "transport: no link " + string(e) }

type simListener struct {
	Listener
	sim *Sim
}

// Accept implements Listener. The inner conn's RemoteAddr is the dialer's
// host; a conn whose pair was cut since the dial is closed and skipped.
func (l *simListener) Accept() (Conn, error) {
	for {
		inner, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		c := &simConn{Conn: inner, sim: l.sim, local: HostOf(l.Addr()), remote: inner.RemoteAddr()}
		if l.sim.track(c) == nil {
			return c, nil
		}
		_ = inner.Close()
	}
}

// simConn is either end of a simulated conn: local and remote are the hosts
// of its link, fixed when the conn is made. Send imposes the link's delay
// and counts the message, then hands it to the in-process pipe unchanged.
type simConn struct {
	Conn
	sim           *Sim
	local, remote string
}

func (c *simConn) Send(msg []byte) error {
	preciseSleep(c.sim.model.Delay(c.local, c.remote))
	c.sim.model.Record(c.local, c.remote, len(msg))
	return c.Conn.Send(msg)
}

func (c *simConn) Close() error {
	c.sim.mu.Lock()
	delete(c.sim.conns, c)
	c.sim.mu.Unlock()
	return c.Conn.Close()
}

func (c *simConn) LocalAddr() string  { return c.local }
func (c *simConn) RemoteAddr() string { return c.remote }
