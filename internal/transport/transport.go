// Package transport implements D-Memo's network-communication foundation
// (paper §3.1.1).
//
// The abstraction is message-oriented: a Conn carries whole memos (framed
// byte slices), not byte streams. Three derivations are provided, selected at
// run time exactly as the paper's virtual functions select platform code:
//
//   - InProc: goroutine/channel transport for processes in one OS process.
//   - TCP: length-prefixed framing over net.Conn for real deployments.
//   - Sim: the in-process network of a simulated cluster. It imposes the
//     per-link latency the ADF topology declares, so the cluster exhibits the
//     communication behaviour the paper's placement policy reacts to; it
//     counts traffic per link; and its Sever and Restore cut and heal links
//     for the resilience tests.
//
// rpc frames ride a Conn directly, one frame per message, so MaxFrame bounds
// a frame and rpc.MaxMessage, below it, bounds a memo. The paper's "derived
// transport layer" (the INMOS Transputer discussion: virtual connections and
// packet fragmentation over one Conn) survives as Mux in mux.go with no
// production caller, kept only for the benchmark ladder's comparison rungs.
package transport

import "errors"

// Common errors.
var (
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrTooLarge reports a message exceeding the frame limit.
	ErrTooLarge = errors.New("transport: message exceeds frame limit")
	// ErrNoListener reports a dial to an address nobody listens on.
	ErrNoListener = errors.New("transport: no listener at address")
)

// MaxFrame is the largest single framed message accepted by any transport.
// Nothing fragments a larger one: rpc.Conn.Call refuses a request whose
// frame, or whose response, could not fit.
const MaxFrame = 16 << 20

// Conn is a bidirectional message connection.
type Conn interface {
	// Send transmits one message. Safe for concurrent use. Implementations
	// must not retain msg after returning: senders on the hot path recycle
	// their buffers (internal/pool) the moment Send returns.
	Send(msg []byte) error
	// Recv blocks for the next message. Safe for one concurrent reader.
	// Ownership of the returned buffer transfers to the caller; the final
	// consumer may recycle it with pool.Put (buffers originate from
	// internal/pool on every built-in transport).
	Recv() ([]byte, error)
	// Close releases the connection; pending and future Recv calls fail
	// with ErrClosed.
	Close() error
	// LocalAddr and RemoteAddr report the endpoint addresses.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close stops listening.
	Close() error
	// Addr reports the bound address.
	Addr() string
}

// Transport is the abstract factory for connections — the paper's transport
// class, able to "simultaneously interact with different protocols in an
// application".
type Transport interface {
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
	// Listen binds addr.
	Listen(addr string) (Listener, error)
}
