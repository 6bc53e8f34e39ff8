// Package rpc is the pipelined, batching RPC layer between the wire codec
// and the transports. Its batch frames ride a transport.Conn directly, one
// frame per transport message, with no virtual circuits underneath.
//
// The paper's derived transport (§3.1.1) exists so that "communication cost
// [is] amortized over time"; this package is that amortization applied to
// request/response traffic:
//
//   - Conn (client side) assigns every request an id, keeps any number of
//     calls in flight on one transport.Conn, and coalesces concurrent
//     small requests into one wire batch frame, capped at DefaultMaxCount
//     entries and DefaultMaxBytes. Responses return in completion order
//     and are matched back by id to each call's Completion (Go); Call is
//     Go plus a wait.
//
//   - Serve (server side) decodes each inbound batch frame, dispatches its
//     requests concurrently (through a thread-cache Submit), and coalesces
//     the responses into batched response frames under the same caps.
//     Blocking operations (get on an empty folder, watch) simply leave
//     their response for a later frame — they never stall the other
//     requests of their batch. ServeRouted routes each request on the read
//     loop first, and may answer it there, park it with a holder, or relay
//     it onto another Conn instead of spending a thread on it: the holder,
//     or the relayed call's completion, answers it.
//
// Cancellation is a batched control entry: a cancel entry names the
// in-flight request id, and the server closes that request's cancel
// channel — or, for a request a holder has (a relayed call, a read parked
// in a folder store), asks the holder to cancel it.
//
// Nothing fragments a frame, so a memo's size is bounded: Go and Call
// refuse a request message over MaxMessage before queuing it.
//
// Batch frames are the only frames either side accepts. A frame that does
// not start with the batch magic — a bare encoded request, garbage — ends
// the connection: Serve returns a protocol error without running a handler
// and the conn is closed; Conn fails every pending call.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// The caps on one batch frame: a frame holds at most DefaultMaxCount
// entries, and stops before an entry that would take it past
// DefaultMaxBytes unless that entry is its first.
const (
	DefaultMaxCount = 64
	DefaultMaxBytes = 64 << 10
)

// MaxMessage is the largest encoded request Go and Call accept. A larger
// one fails with an error matching transport.ErrTooLarge before it is
// queued; it is not a LinkError, so nothing retries it, and the connection
// stays up. It is the memo size bound: 64 KiB below transport.MaxFrame
// leaves room for the batch framing and for what a response adds to the
// memo it returns (a status byte and its key), so the get that takes any
// accepted memo fits in one frame as well.
const MaxMessage = transport.MaxFrame - 64<<10

// DefaultHeartbeat is the probe interval client dial helpers use when the
// caller does not choose one — sized so the daemons' default idle timeout
// (15s, 3× this) never fires on a healthy-but-silent connection.
const DefaultHeartbeat = 5 * time.Second

// Policy is an empty placeholder. The batcher drains by backpressure — an
// entry arriving on an idle wire is sent at once, entries queued behind an
// in-flight frame ship the moment it completes — and the frame caps above
// are constants, so there is nothing left to tune. NewConn, Serve and
// memoserver.DialClientResilient keep a Policy parameter only so that
// callers written against the old signatures still compile.
type Policy struct{}

// Errors.
var (
	// ErrConnClosed reports a call on a closed or failed Conn.
	ErrConnClosed = errors.New("rpc: connection closed")
	// ErrLinkDown reports a call failed because the underlying link died —
	// the transport errored or the heartbeat deadline expired. Match with
	// errors.Is; the concrete error is a *LinkError carrying the cause and
	// whether the request had reached the wire.
	ErrLinkDown = errors.New("rpc: link down")
)

// LinkError is how a call ends when its connection dies. Sent
// distinguishes the two retry classes: a request that never left the local
// batcher queue (Sent == false) was certainly not executed and is safe to
// retry for any operation, while a request already handed to the transport
// (Sent == true) may or may not have executed — only idempotent operations
// may be retried blindly. errors.Is(err, ErrLinkDown) matches both.
type LinkError struct {
	// Sent reports whether the request was handed to the transport before
	// the link died. Marked conservatively (just before the frame ships),
	// so false is a guarantee and true is a maybe.
	Sent bool
	// Cause is the terminal link error (transport failure, heartbeat
	// expiry).
	Cause error
}

func (e *LinkError) Error() string {
	if e.Sent {
		return fmt.Sprintf("rpc: link down (request in flight): %v", e.Cause)
	}
	return fmt.Sprintf("rpc: link down (request not sent): %v", e.Cause)
}

func (e *LinkError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrLinkDown) true for every LinkError.
func (e *LinkError) Is(target error) bool { return target == ErrLinkDown }

// Resilience tunes the link-resilience layer: app-level heartbeats (so
// transport idle timeouts can be armed without killing legitimately-silent
// blocking folder waits), reconnect backoff for peer links, and the bounded
// transparent-retry budget for safely-retriable calls. The zero value
// disables all three (the pre-resilience behavior).
//
// The fields are consumed at different layers of the stack: Heartbeat by
// every Conn (NewConnResilient), Redial and Retries by the memo server's
// links only (peer links and the client link) — a raw Conn has no dial function to retry with, so
// NewConnResilient ignores them.
type Resilience struct {
	// Heartbeat, when positive, makes the client side of a Conn emit a
	// heartbeat control entry whenever its receive direction has been
	// quiet for this long; the server echoes it. Any inbound traffic
	// re-arms the timer. A peer silent for 2× this interval is declared
	// dead: the Conn fails and
	// every pending call returns a *LinkError. Size transport idle
	// timeouts to at least 2–3× this interval.
	Heartbeat time.Duration
	// Redial is the backoff schedule the memo server's links use to
	// re-dial a dead conn (zero = transport backoff defaults). Not
	// consumed by NewConnResilient.
	Redial transport.Backoff
	// Retries bounds how many times a failed call is transparently
	// re-dialed and re-issued by the memo server's links. Calls whose
	// request provably never reached the wire retry regardless of
	// operation; calls already in flight retry only for idempotent,
	// non-destructive operations. 0 disables transparent retries. Not
	// consumed by NewConnResilient.
	Retries int
}
