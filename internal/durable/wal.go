package durable

import (
	"os"
	"runtime"
	"slices"
	"sync"
	"time"
)

// writer is a store's one write-ahead log: one append buffer that every shard
// encodes into, the current generation's segment file, and one syncer
// goroutine that drains the buffer by backpressure — whatever all shards
// appended while the previous write+fsync ran ships in the next cycle, so one
// fsync amortizes over a group of records exactly the way one in-flight frame
// amortizes the rpc batcher's sends.
//
// The buffer is contiguous: records are encoded straight into it, a group
// commit is one write(2) of it, and the syncer hands the written buffer back
// as the next cycle's spare, so in steady state an append allocates nothing.
//
// A snapshot window (openWindow … endWindow) keeps the previous generation's
// segment live for the shards not yet cut: their records go to oldBuf, a cut
// shard's to buf, and one cycle writes both before it advances syncSeq.
//
// Every record that waits for its fsync is on one pending list, in seq
// order: whoever moves syncSeq past it (a syncer cycle, a window's end,
// close) or kills the log (a failed ship, crash) detaches it under mu and
// completes it once both locks are released (unlockSettle). That is the
// log's one way to report progress; Commit is a wait on it.
//
// Locking: io serializes everything that touches the files (syncer cycles,
// window open and end, close); mu guards the buffers, routes, sequence
// counters and the pending list. io is always taken before mu, and
// appenders take only mu, so an append never waits for an fsync.
type writer struct {
	cfg Config

	io sync.Mutex // file writes, window open/end, close; taken before mu

	mu      sync.Mutex
	f       *os.File // current generation's segment
	old     *os.File // previous generation's segment while a window is open, else nil
	cut     []bool   // per shard, while a window is open: routed to f
	buf     []byte   // frames for f awaiting write
	oldBuf  []byte   // frames for old awaiting write
	oldN    uint64   // records in oldBuf
	spare   []byte   // the last written buffer, emptied, for the next swap
	seq     uint64   // last appended sequence number
	syncSeq uint64   // last sequence made durable (per the sync mode)
	failed  error    // sticky terminal error (write/sync failure, crash)
	closed  bool
	pending []pending // records awaiting syncSeq, by seq

	wake chan struct{} // capacity 1: "frames may be pending"
}

func newWriter(f *os.File, shards int, cfg Config) *writer {
	w := &writer{cfg: cfg, f: f, cut: make([]bool, shards), wake: make(chan struct{}, 1)}
	go w.run()
	return w
}

// append encodes one record into the buffer its shard is routed to and
// returns its sequence number and frame size. The caller holds the owning
// Store shard's lock, which is what orders records of one folder. Returns 0
// when the log is dead (commit will report why).
func (w *writer) append(shard int, rec *Record) (seq uint64, size int) {
	w.mu.Lock()
	if w.closed || w.failed != nil {
		w.mu.Unlock()
		return 0, 0
	}
	dst := &w.buf
	if w.old != nil && !w.cut[shard] {
		dst = &w.oldBuf
		w.oldN++
	}
	before := len(*dst)
	*dst = AppendRecord(*dst, rec)
	size = len(*dst) - before
	w.seq++
	seq = w.seq
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return seq, size
}

// pending is a record's completion, waiting for syncSeq to reach its seq.
type pending struct {
	seq uint64
	c   Completion
}

// await hands c the fate of record seq: nil once it is durable, else the
// log's terminal error. Seq 0 is a barrier — everything appended so far —
// and, on a dead log, the dead append it also stands for, which fails.
// Durability is checked first: a record that close flushed completes fine.
// c runs here when the fate is already known, else later from whoever
// decides it (see unlockSettle).
func (w *writer) await(seq uint64, c Completion) {
	w.mu.Lock()
	err := w.aliveLocked()
	if seq == 0 && err == nil {
		seq = w.seq
	}
	if err == nil && seq > w.syncSeq {
		w.pending = append(w.pending, pending{seq, c})
		for i := len(w.pending) - 1; i > 0 && w.pending[i-1].seq > seq; i-- {
			w.pending[i], w.pending[i-1] = w.pending[i-1], w.pending[i]
		}
		w.mu.Unlock()
		return
	}
	if seq != 0 && seq <= w.syncSeq {
		err = nil
	}
	w.mu.Unlock()
	c.Complete(err)
}

// unlockSettle detaches into done the pending records the log has decided —
// those syncSeq covers, and every one once the log is dead — releases mu
// (and io, when the caller holds it), then completes them in seq order
// outside both: nil for a record synced covers, the terminal error for the
// rest. It returns done emptied, for a caller that reuses it.
//
//memolint:nonblocking
func (w *writer) unlockSettle(io bool, done []pending) []pending {
	err := w.aliveLocked()
	n := 0
	for n < len(w.pending) && (err != nil || w.pending[n].seq <= w.syncSeq) {
		n++
	}
	done = append(done[:0], w.pending[:n]...)
	w.pending = slices.Delete(w.pending, 0, n)
	synced := w.syncSeq
	w.mu.Unlock()
	if io {
		w.io.Unlock()
	}
	for _, p := range done {
		if p.seq <= synced {
			p.c.Complete(nil)
		} else {
			p.c.Complete(err)
		}
	}
	clear(done)
	return done[:0]
}

// aliveLocked reports the terminal state (nil while alive). Caller holds mu.
func (w *writer) aliveLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return ErrClosed
	}
	return nil
}

func (w *writer) aliveErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.aliveLocked()
}

// maxSpare bounds the emptied buffer the writer keeps for reuse, so one burst
// does not pin its high-water mark forever.
const maxSpare = 4 << 20

// run is the syncer: each cycle takes both buffers at one watermark, makes
// them durable with one write (+fsync per the mode) per non-empty buffer,
// and then completes every record the cycle covered. A failed cycle kills
// the log and fails every pending record.
func (w *writer) run() {
	var done []pending // the syncer's own, reused across cycles
	for range w.wake {
		for {
			w.io.Lock()
			w.mu.Lock()
			if w.closed || w.failed != nil {
				w.mu.Unlock()
				w.io.Unlock()
				return
			}
			if len(w.buf) == 0 && len(w.oldBuf) == 0 {
				w.mu.Unlock()
				w.io.Unlock()
				break
			}
			// io held through take+write+mark means nothing is ever in
			// flight elsewhere: the taken buffers are exactly records
			// syncSeq+1..mark.
			batch, oldBatch, mark, oldN := w.buf, w.oldBuf, w.seq, w.oldN
			n := mark - w.syncSeq
			w.buf, w.spare = w.spare, nil
			w.oldBuf, w.oldN = nil, 0
			f, old := w.f, w.old
			w.mu.Unlock()

			err := w.ship(old, oldBatch, oldN)
			if err == nil {
				err = w.ship(f, batch, n-oldN)
			}

			w.mu.Lock()
			if err != nil && w.failed == nil {
				w.failed = err
			} else if err == nil {
				w.syncSeq = mark
				if cap(batch) <= maxSpare {
					w.spare = batch[:0]
				}
			}
			done = w.unlockSettle(true, done)
			if err != nil {
				return
			}
			// Yield before the next cycle: the ops just answered send their
			// next records first, so the following fsync covers a full
			// group instead of racing ahead of its producers — that one
			// scheduling gap is the difference between per-record and
			// amortized sync cost when cores are scarce.
			runtime.Gosched()
		}
	}
}

// ship writes n records' frames to f with one write (+fsync per the mode),
// if there are any. Caller holds io.
func (w *writer) ship(f *os.File, frames []byte, n uint64) error {
	if len(frames) == 0 {
		return nil
	}
	start := time.Now()
	_, err := f.Write(frames)
	if err == nil && w.cfg.Sync != SyncNever {
		err = f.Sync()
	}
	mFsyncNS.Observe(int64(time.Since(start)))
	mCommitBatch.Observe(int64(n))
	return err
}

// flushLocked writes and (mode permitting) fsyncs both buffers to their
// segments. Caller holds io and mu.
func (w *writer) flushLocked() error {
	if w.failed != nil {
		return w.failed
	}
	for _, s := range [...]struct {
		f      *os.File
		frames []byte
	}{{w.old, w.oldBuf}, {w.f, w.buf}} {
		if len(s.frames) == 0 {
			continue // every earlier cycle synced what it wrote
		}
		_, err := s.f.Write(s.frames)
		if err == nil && w.cfg.Sync != SyncNever {
			err = s.f.Sync()
		}
		if err != nil {
			w.failed = err
			return err
		}
	}
	w.buf, w.oldBuf, w.oldN = w.buf[:0], nil, 0
	w.syncSeq = w.seq
	return nil
}

// openWindow makes next the current segment. Until endWindow, the previous
// one stays live: what is still buffered for it stays there, and so does
// every record of a shard not yet cut.
func (w *writer) openWindow(next *os.File) error {
	w.io.Lock()
	defer w.io.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.aliveLocked(); err != nil {
		return err
	}
	w.old, w.f = w.f, next
	w.oldBuf, w.oldN = w.buf, w.seq-w.syncSeq // io held: nothing is in flight
	w.buf, w.spare = w.spare, nil
	clear(w.cut)
	return nil
}

// cutShard routes the shard's future records to the current segment. The
// caller holds the owning Store shard's lock.
func (w *writer) cutShard(shard int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.aliveLocked(); err != nil {
		return err
	}
	w.cut[shard] = true
	return nil
}

// endWindow makes everything appended so far durable, closes the previous
// generation's segment and routes every shard to the current one. A no-op
// once the window has ended.
func (w *writer) endWindow() error {
	w.io.Lock()
	w.mu.Lock()
	defer w.unlockSettle(true, nil)
	if err := w.aliveLocked(); err != nil || w.old == nil {
		return err
	}
	err := w.flushLocked()
	if cerr := w.old.Close(); err == nil {
		err = cerr
	}
	w.old = nil
	return err
}

// close flushes and retires the writer; pending records complete first,
// durable unless the flush failed.
func (w *writer) close() error {
	w.io.Lock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.io.Unlock()
		return nil
	}
	err := w.flushLocked()
	w.closed = true
	w.buf, w.oldBuf, w.spare = nil, nil, nil
	files := [...]*os.File{w.f, w.old}
	w.unlockSettle(true, nil)
	w.stopSyncer()
	for _, f := range files {
		if f == nil {
			continue
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// crash abandons buffered records and slams the files shut — what SIGKILL
// does to a real process. Pending commits fail with ErrCrashed; whatever an
// earlier cycle already wrote stays in the files, exactly like OS-buffered
// data surviving a killed process. Pending records fail before crash waits
// for anything. A write already under way lands before crash returns, as a
// kill cannot stop a write(2) the kernel has taken: a log reopened on the
// directory afterwards reads files nothing writes to.
func (w *writer) crash() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	if w.failed == nil {
		w.failed = ErrCrashed
	}
	w.buf, w.oldBuf, w.spare = nil, nil, nil
	files := [...]*os.File{w.f, w.old}
	w.unlockSettle(false, nil)
	w.stopSyncer()
	w.io.Lock() // waits out a write under way
	defer w.io.Unlock()
	for _, f := range files {
		if f != nil {
			_ = f.Close()
		}
	}
}

// stopSyncer unblocks the syncer so it observes closed and exits; the channel
// is never closed because a racing append may still signal it.
func (w *writer) stopSyncer() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}
