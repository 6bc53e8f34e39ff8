package durable

import (
	"os"
	"runtime"
	"sync"
	"time"
)

// stripe is one shard's write-ahead log: an append buffer, the current
// segment file, and a dedicated syncer goroutine that drains the buffer by
// backpressure — whatever accumulated while the previous write+fsync ran
// ships in the next cycle, so one fsync amortizes over a group of records
// exactly the way one in-flight frame amortizes the rpc batcher's sends.
//
// The buffer is contiguous: records are encoded straight into it, a group
// commit is one write(2) of it, and the syncer hands the written buffer back
// as the next cycle's spare, so in steady state an append allocates nothing.
//
// Locking: io serializes everything that touches the file (syncer cycles,
// rotation, close); mu guards the buffer and sequence counters. io is always
// taken before mu, and appenders take only mu, so an append never waits for
// an fsync — only Commit does.
type stripe struct {
	cfg Config

	io sync.Mutex // file writes, rotation, close; taken before mu
	f  *os.File   // current segment; swapped by rotate under io+mu

	mu      sync.Mutex
	synced  *sync.Cond // signalled when syncedSeq/failed/state advance
	buf     []byte     // encoded frames awaiting write: records syncSeq+1..seq
	spare   []byte     // the last written buffer, emptied, for the next swap
	seq     uint64     // last appended sequence number
	syncSeq uint64     // last sequence made durable (per the sync mode)
	failed  error      // sticky terminal error (write/sync failure, crash)
	closed  bool

	wake chan struct{} // capacity 1: "frames may be pending"
}

func newStripe(f *os.File, cfg Config) *stripe {
	s := &stripe{cfg: cfg, f: f, wake: make(chan struct{}, 1)}
	s.synced = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// append encodes one record into the buffer and returns its sequence number
// and frame size. The caller holds the owning Store shard's lock, which is
// what orders records of one folder. Returns 0 when the stripe is dead (commit
// will report why).
func (s *stripe) append(rec *Record) (seq uint64, size int) {
	s.mu.Lock()
	if s.closed || s.failed != nil {
		s.mu.Unlock()
		return 0, 0
	}
	before := len(s.buf)
	s.buf = AppendRecord(s.buf, rec)
	size = len(s.buf) - before
	s.seq++
	seq = s.seq
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	return seq, size
}

// commit blocks until seq is durable. seq 0 is a dead append (death is
// sticky, so the terminal state explains it). A record flushed by close()
// commits fine even though the stripe is now closed — durability checks
// come first.
func (s *stripe) commit(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq == 0 {
		if s.failed != nil {
			return s.failed
		}
		return ErrClosed
	}
	for {
		if s.syncSeq >= seq {
			return nil
		}
		if s.failed != nil {
			return s.failed
		}
		if s.closed {
			return ErrClosed
		}
		s.synced.Wait()
	}
}

// aliveErr reports the stripe's terminal state (nil while alive).
func (s *stripe) aliveErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// barrier returns the current append sequence, for commit-waiting on
// everything logged so far.
func (s *stripe) barrier() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// maxSpare bounds the emptied buffer a stripe keeps for reuse, so one burst
// does not pin its high-water mark forever.
const maxSpare = 4 << 20

// run is the syncer: each cycle takes the whole buffer and makes it durable
// with one write (+fsync per the mode). SyncAlways instead walks the taken
// buffer frame by frame, one write+fsync and one wake-up per record.
func (s *stripe) run() {
	for range s.wake {
		for {
			s.io.Lock()
			s.mu.Lock()
			if s.closed || s.failed != nil {
				s.mu.Unlock()
				s.io.Unlock()
				return
			}
			if len(s.buf) == 0 {
				s.mu.Unlock()
				s.io.Unlock()
				break
			}
			// io held through take+write+mark means nothing is ever in
			// flight elsewhere: the taken buffer is exactly records
			// syncSeq+1..seq.
			batch, n := s.buf, s.seq-s.syncSeq
			s.buf, s.spare = s.spare, nil
			f := s.f
			s.mu.Unlock()

			for rest := batch; len(rest) > 0; {
				unit, covers := rest, n
				if s.cfg.Sync == SyncAlways {
					unit, covers = rest[:frameLen(rest)], 1
				}
				start := time.Now()
				_, err := f.Write(unit)
				if err == nil && s.cfg.Sync != SyncNever {
					err = f.Sync()
				}
				mFsyncNS.Observe(int64(time.Since(start)))
				mCommitBatch.Observe(int64(covers))
				rest = rest[len(unit):]

				s.mu.Lock()
				if err != nil {
					if s.failed == nil {
						s.failed = err
					}
					s.synced.Broadcast()
					s.mu.Unlock()
					s.io.Unlock()
					return
				}
				s.syncSeq += covers
				if len(rest) == 0 && cap(batch) <= maxSpare {
					s.spare = batch[:0]
				}
				s.synced.Broadcast()
				s.mu.Unlock()
			}
			s.io.Unlock()
			// Yield before the next cycle: the waiters just woken re-append
			// their next records first, so the following fsync covers a full
			// group instead of racing ahead of its producers — that one
			// scheduling gap is the difference between per-record and
			// amortized sync cost when cores are scarce.
			runtime.Gosched()
		}
	}
}

// flushLocked writes and (mode permitting) fsyncs the whole buffer to the
// current file. Caller holds io and mu.
func (s *stripe) flushLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if len(s.buf) == 0 {
		return nil // every earlier cycle synced what it wrote
	}
	_, err := s.f.Write(s.buf)
	if err == nil && s.cfg.Sync != SyncNever {
		err = s.f.Sync()
	}
	if err != nil {
		s.failed = err
		s.synced.Broadcast()
		return err
	}
	s.buf = s.buf[:0]
	s.syncSeq = s.seq
	s.synced.Broadcast()
	return nil
}

// rotate flushes the old segment and switches the stripe onto next. The
// caller holds the owning Store shard's lock, so no append races the swap;
// io excludes an in-flight syncer cycle, so no pre-cut frame can land in the
// post-cut segment.
func (s *stripe) rotate(next *os.File) error {
	s.io.Lock()
	defer s.io.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	old := s.f
	s.f = next
	if err := old.Close(); err != nil {
		return err
	}
	return nil
}

// close flushes and retires the stripe; pending commits complete first.
func (s *stripe) close() error {
	s.io.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.io.Unlock()
		return nil
	}
	err := s.flushLocked()
	s.closed = true
	s.buf, s.spare = nil, nil
	s.synced.Broadcast()
	f := s.f
	s.mu.Unlock()
	s.io.Unlock()
	// Unblock the syncer so it observes closed and exits; the channel is
	// never closed because a racing append may still signal it.
	select {
	case s.wake <- struct{}{}:
	default:
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// crash abandons buffered records and slams the file shut — what SIGKILL
// does to a real process. Pending commits fail with ErrCrashed; whatever an
// earlier cycle already wrote stays in the file, exactly like OS-buffered
// data surviving a killed process.
func (s *stripe) crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.failed == nil {
		s.failed = ErrCrashed
	}
	s.buf, s.spare = nil, nil
	s.synced.Broadcast()
	f := s.f
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	_ = f.Close()
}
