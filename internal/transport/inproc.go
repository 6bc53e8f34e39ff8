package transport

import (
	"sync"

	"repro/internal/pool"
)

// InProc is a process-local transport: addresses live in a private namespace
// and connections are paired in-memory queues. It is the substrate for the
// simulated cluster and for tests.
type InProc struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// NewInProc returns an empty in-process transport namespace.
func NewInProc() *InProc {
	return &InProc{listeners: make(map[string]*inprocListener)}
}

// Name implements Transport.
func (t *InProc) Name() string { return "inproc" }

// Listen implements Transport.
func (t *InProc) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, taken := t.listeners[addr]; taken {
		return nil, errAddrInUse(addr)
	}
	l := &inprocListener{
		addr: addr,
		// Buffered: like a kernel accept backlog, a dial succeeds without a
		// concurrently pending Accept.
		incoming: make(chan *inprocConn, 128),
		done:     make(chan struct{}),
		owner:    t,
	}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport. The enqueue happens under the namespace lock so
// a concurrent listener Close either sees the pending connection (and resets
// it) or the dial sees the listener gone — a dialed connection is never
// silently orphaned.
func (t *InProc) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.listeners[addr]
	if !ok {
		return nil, ErrNoListener
	}
	select {
	case <-l.done:
		return nil, ErrNoListener
	default:
	}
	client, server := Pipe("dial:"+addr, addr)
	select {
	case l.incoming <- server.(*inprocConn):
		return client, nil
	default:
		return nil, errAddrInUse("accept backlog full: " + addr)
	}
}

type errAddrInUse string

func (e errAddrInUse) Error() string { return "transport: address in use: " + string(e) }

type inprocListener struct {
	addr     string
	incoming chan *inprocConn
	done     chan struct{}
	closeOne sync.Once
	owner    *InProc
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.incoming:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.closeOne.Do(func() {
		l.owner.mu.Lock()
		close(l.done)
		delete(l.owner.listeners, l.addr)
		l.owner.mu.Unlock()
		// Reset connections still waiting in the backlog, as a kernel
		// resets un-accepted connections when a socket closes.
		for {
			select {
			case c := <-l.incoming:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// inprocConn is one endpoint of an in-memory duplex message pipe.
type inprocConn struct {
	local, remote string
	out           chan []byte
	in            chan []byte
	closed        chan struct{} // our own close
	peerClosed    chan struct{} // the other side's close
	closeOne      sync.Once
}

// Pipe returns two connected in-memory endpoints: the pair an in-process
// dial builds, exposed for tests.
func Pipe(addrA, addrB string) (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	ca := &inprocConn{local: addrA, remote: addrB, out: ab, in: ba,
		closed: make(chan struct{}), peerClosed: make(chan struct{})}
	cb := &inprocConn{local: addrB, remote: addrA, out: ba, in: ab,
		closed: ca.peerClosed, peerClosed: ca.closed}
	return ca, cb
}

func (c *inprocConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return ErrTooLarge
	}
	// Closed endpoints refuse sends even when buffer space remains (select
	// alone would choose randomly between the ready cases).
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peerClosed:
		return ErrClosed
	default:
	}
	// Copy: the caller may reuse its buffer, and a real network would copy.
	// The copy lands in a pooled buffer — this is the handoff copy of the
	// send path, and ownership transfers to the receiver, which recycles it.
	buf := append(pool.Get(len(msg)), msg...)
	select {
	case <-c.closed:
		pool.Put(buf)
		return ErrClosed
	case <-c.peerClosed:
		pool.Put(buf)
		return ErrClosed
	case c.out <- buf:
		return nil
	}
}

func (c *inprocConn) Recv() ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.closed:
		return nil, ErrClosed
	case <-c.peerClosed:
		// Drain messages that raced with the peer's close.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *inprocConn) Close() error {
	c.closeOne.Do(func() { close(c.closed) })
	return nil
}

func (c *inprocConn) LocalAddr() string  { return c.local }
func (c *inprocConn) RemoteAddr() string { return c.remote }
