package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// TCP is the real-network transport: length-prefixed message framing over
// net.Conn. Addresses are standard "host:port" strings. Listen with port 0
// picks a free port (query it via Listener.Addr).
type TCP struct {
	// IdleTimeout, when positive, arms a read deadline on every socket read: a
	// connection that stays silent for the whole window fails with
	// ErrIdleTimeout instead of wedging its reader forever behind a dead
	// peer. The error propagates like any Recv failure: rpc.Serve returns
	// it and an rpc.Conn fails its calls. Zero keeps reads unbounded
	// (blocking folder waits can legitimately leave a connection quiet;
	// enable the timeout where traffic — or rpc pings — is guaranteed).
	IdleTimeout time.Duration
}

// ErrIdleTimeout reports a connection closed for exceeding TCP.IdleTimeout
// with no inbound traffic.
var ErrIdleTimeout = errors.New("transport: connection idle timeout")

// NewTCP returns the TCP transport with unbounded reads.
func NewTCP() *TCP { return &TCP{} }

// Name implements Transport.
func (*TCP) Name() string { return "tcp" }

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return t.newConn(nc), nil
}

// Listen implements Transport.
func (t *TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl, t: t}, nil
}

type tcpListener struct {
	nl net.Listener
	t  *TCP
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.newConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// tcpBufSize sizes each connection's write and read buffers to a full
// default rpc batch frame: anything up to it leaves in one write, and one
// read drains as many queued frames as fit. Larger frames bypass the
// buffers (bufio reads and writes oversize chunks directly).
const tcpBufSize = 64 << 10

var (
	mReads = obs.Default.Counter("transport_tcp_reads_total",
		"read calls issued on tcp sockets (one may return many frames)")
	mWrites = obs.Default.Counter("transport_tcp_writes_total",
		"write calls issued on tcp sockets (one per frame up to the buffer size)")
)

// tcpConn frames messages as 4-byte big-endian length + payload. Both
// directions are buffered so the framing costs no extra socket operations:
// Send assembles header and body in w and flushes them with one write, and
// Recv parses frames out of r, which refills with one read however many
// frames that read returns.
type tcpConn struct {
	nc net.Conn

	sendMu  sync.Mutex
	w       *bufio.Writer // over sock{nc}
	sendHdr [4]byte

	recvMu  sync.Mutex
	r       *bufio.Reader // over sock{nc}
	recvHdr [4]byte
}

// sock is the io.Reader and io.Writer the buffers wrap: every call is one
// socket operation, so this is where they are counted and where the idle
// deadline is armed.
type sock struct {
	nc   net.Conn
	idle time.Duration
}

// Read re-arms the idle deadline before each read that reaches the socket:
// the timeout measures silence, so a slow peer that keeps bytes trickling
// in is alive, while one that stalls for a whole window — mid-frame or
// between frames — trips the deadline. Bytes served from the read buffer
// never get here and cost no deadline call.
func (s sock) Read(p []byte) (int, error) {
	if s.idle > 0 {
		if err := s.nc.SetReadDeadline(time.Now().Add(s.idle)); err != nil {
			return 0, err
		}
	}
	mReads.Inc()
	return s.nc.Read(p)
}

func (s sock) Write(p []byte) (int, error) {
	mWrites.Inc()
	return s.nc.Write(p)
}

func (t *TCP) newConn(nc net.Conn) *tcpConn {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Memos are small request/response messages; Nagle hurts.
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
	}
	s := sock{nc: nc, idle: t.IdleTimeout}
	return &tcpConn{
		nc: nc,
		w:  bufio.NewWriterSize(s, tcpBufSize),
		r:  bufio.NewReaderSize(s, tcpBufSize),
	}
}

// Send writes one frame. The writer's errors are sticky and a failed Send
// may have put part of a frame on the wire; either way the connection is
// done (the rpc batcher closes it on any send error).
func (c *tcpConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return ErrTooLarge
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.BigEndian.PutUint32(c.sendHdr[:], uint32(len(msg)))
	_, _ = c.w.Write(c.sendHdr[:]) // sticky: Flush reports a failed write
	_, _ = c.w.Write(msg)
	return c.w.Flush()
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if _, err := io.ReadFull(c.r, c.recvHdr[:]); err != nil {
		return nil, c.recvErr(err)
	}
	n := binary.BigEndian.Uint32(c.recvHdr[:])
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	// Pooled, not a slice of the read buffer: the rpc server's dispatched
	// requests alias the frame until their handlers return, long after the
	// next Recv, so the buffer's ownership must transfer out of the reader —
	// the final consumer recycles it with pool.Put.
	msg := pool.Get(int(n))[:n]
	if _, err := io.ReadFull(c.r, msg); err != nil {
		pool.Put(msg)
		return nil, c.recvErr(err)
	}
	return msg, nil
}

// recvErr normalizes read failures: clean EOFs become ErrClosed, deadline
// expiries become ErrIdleTimeout (wrapped with the cause), so the reader
// that fails reports why the connection died.
func (c *tcpConn) recvErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		_ = c.nc.Close()
		return fmt.Errorf("%w: %v", ErrIdleTimeout, err)
	}
	return err
}

func (c *tcpConn) Close() error       { return c.nc.Close() }
func (c *tcpConn) LocalAddr() string  { return c.nc.LocalAddr().String() }
func (c *tcpConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }
