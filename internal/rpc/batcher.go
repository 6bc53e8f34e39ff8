package rpc

import (
	"runtime"
	"sync"

	"repro/internal/pool"
	"repro/internal/wire"
)

// batcher coalesces batch entries into frames. Both ends of a connection
// use one: the Conn for requests, Serve for responses.
//
// The engine is backpressure draining: a dedicated sender goroutine ships
// whatever has accumulated the moment the wire goes idle. On each wake-up
// it yields the processor once before its first take, so every goroutine
// that was already runnable — the other handlers of the batch that just
// arrived, the other callers of a busy client — queues its entry first.
// A lone entry on an idle process pays a no-op yield and is sent at once;
// under load the batch is the backlog, and the previous frame's
// transmission time is the window in which the next one accumulates.
// Load sizes the batch, not a timer: there is none. The Policy only caps
// a frame (MaxCount/MaxBytes).
//
// The queue itself is bounded: past a high-water mark (a few frames'
// worth), add blocks until the sender drains — so a peer that stops
// reading stalls its producers (callers, handler threads) instead of
// growing server memory without limit, the same backpressure the old
// synchronous one-request-per-channel loop enforced.
//
// The steady state allocates nothing: entry Msg bytes arrive in pooled
// buffers owned by the batcher (recycled after their frame ships), the
// frame itself is encoded into one pooled buffer that goes to the conn as
// is, and both the queue array and the sender's drain slice are reused
// across frames.
type batcher struct {
	kind  wire.BatchKind
	pol   Policy
	conn  frameSender // transports one encoded frame
	onErr func(error) // called once when send fails
	// preSend, when set, observes each frame's entries immediately before
	// the transport send. The Conn uses it to mark calls as
	// handed-to-the-wire: marking before the send means a send that fails
	// midway still counts as "maybe sent", the conservative direction for
	// retry safety.
	preSend func([]wire.BatchEntry)

	mu        sync.Mutex
	unblocked *sync.Cond // signaled when queue drains below high water
	queue     []wire.BatchEntry
	closed    bool

	wake chan struct{} // capacity 1: "queue may be non-empty"
}

// frameSender is the slice of transport.Conn the batcher drives.
type frameSender interface {
	Send(msg []byte) error
}

func newBatcher(kind wire.BatchKind, pol Policy, conn frameSender, onErr func(error)) *batcher {
	b := &batcher{kind: kind, pol: pol, conn: conn, onErr: onErr, wake: make(chan struct{}, 1)}
	b.unblocked = sync.NewCond(&b.mu)
	go b.sender()
	return b
}

// highWater is the queue depth at which add starts blocking: four full
// frames of headroom keeps the sender busy without unbounded buildup.
func (b *batcher) highWater() int { return 4 * b.pol.MaxCount }

// add queues one entry and nudges the sender, blocking while the queue is
// over the high-water mark. Ownership of e.Msg's buffer passes to the
// batcher, which recycles it once the entry's frame has shipped.
func (b *batcher) add(e wire.BatchEntry) {
	b.mu.Lock()
	for !b.closed && len(b.queue) >= b.highWater() {
		b.unblocked.Wait()
	}
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, e)
	b.mu.Unlock()
	b.signal()
}

// addControl enqueues a control entry (heartbeat probe or echo, cancel)
// without ever blocking: control traffic must not park behind the
// backpressure wait — the heartbeat loop and the server read pump cannot
// afford to stop — and must not be dropped at high water either, because a
// saturated-but-healthy link still needs its proof-of-life traffic (a
// probe starved by a full data queue would let the deadman kill a live
// link). Control entries are tiny and rate-bounded (one probe per
// interval, one echo per inbound probe, one cancel per canceled call), so
// exceeding the high-water mark by their count is harmless. Returns false
// only when the batcher is already closed. Like add, it takes over e.Msg's
// buffer (when the entry carries one).
func (b *batcher) addControl(e wire.BatchEntry) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.queue = append(b.queue, e)
	b.mu.Unlock()
	b.signal()
	return true
}

// signal tells the sender the queue may be non-empty. No wake-up is lost,
// so no entry needs a timer behind it: every append is followed by a
// signal, and the sender only goes back to waiting after seeing the queue
// empty under b.mu. An entry appended before that check is taken by that
// drain. One appended after it has its signal still to come: either the
// token goes into the empty channel, or the channel already holds one the
// sender has not consumed yet — in both cases the sender's next receive
// succeeds and its next drain finds the entry.
func (b *batcher) signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// sender drains the queue into frames, one Policy-capped frame per send,
// for as long as entries remain; then it blocks for the next wake-up. The
// drain slice and frame buffer are reused across iterations; entry Msg
// buffers recycle after each send.
func (b *batcher) sender() {
	var batch []wire.BatchEntry
	for range b.wake { // never closed; exit is via the closed flag
		// The first add made us runnable; let everything else that is
		// runnable add too before the first take. Later frames of this
		// drain do not yield: the previous send was their window.
		runtime.Gosched()
		for {
			b.mu.Lock()
			if b.closed {
				b.mu.Unlock()
				return
			}
			if len(b.queue) == 0 {
				b.mu.Unlock()
				break
			}
			batch = b.takeLocked(batch[:0])
			b.mu.Unlock()
			if b.preSend != nil {
				b.preSend(batch)
			}
			err := b.sendFrame(batch)
			// Recycle each entry's message and span buffers and drop the
			// references so payloads aren't pinned until the next drain.
			for i := range batch {
				if m := batch[i].Msg; m != nil {
					pool.Put(m)
				}
				if sp := batch[i].Spans; sp != nil {
					pool.Put(sp)
				}
				batch[i] = wire.BatchEntry{}
			}
			if err != nil {
				b.close()
				if b.onErr != nil {
					b.onErr(err)
				}
				return
			}
		}
	}
}

// sendFrame encodes one frame into a pooled buffer and ships it; the
// conn's Send is the frame's one copy (TCP's into its write buffer).
func (b *batcher) sendFrame(batch []wire.BatchEntry) error {
	mFrames.Inc()
	mBatchEntries.Observe(int64(len(batch)))
	msgBytes := 0
	for i := range batch {
		msgBytes += len(batch[i].Msg) + len(batch[i].Spans)
	}
	frame := wire.AppendBatch(pool.Get(wire.BatchOverhead(len(batch), msgBytes)), b.kind, batch)
	err := b.conn.Send(frame)
	pool.Put(frame)
	return err
}

// takeLocked copies up to MaxCount entries from the queue head into dst,
// compacting the queue in place so its backing array is reused forever. It
// stops before an entry that would take the frame past ~MaxBytes encoded
// bytes unless that entry is the frame's first: a frame is at most MaxBytes
// or one entry, so no run of small entries can push a MaxMessage-sized one
// past transport.MaxFrame.
func (b *batcher) takeLocked(dst []wire.BatchEntry) []wire.BatchEntry {
	n, size := 0, 0
	for n < len(b.queue) && n < b.pol.MaxCount {
		e := len(b.queue[n].Msg) + len(b.queue[n].Spans) + 12 // ~ per-entry framing overhead
		if n > 0 && size+e > b.pol.MaxBytes {
			break
		}
		size += e
		n++
	}
	dst = append(dst, b.queue[:n]...)
	rest := copy(b.queue, b.queue[n:])
	for i := rest; i < len(b.queue); i++ {
		b.queue[i] = wire.BatchEntry{}
	}
	b.queue = b.queue[:rest]
	b.unblocked.Broadcast()
	return dst
}

// close drops queued entries and retires the sender; subsequent adds no-op.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.queue = nil
	b.unblocked.Broadcast()
	b.mu.Unlock()
	// Unblock the sender so it observes closed and exits. The wake channel
	// is never closed: a racing add may still signal it.
	b.signal()
}
