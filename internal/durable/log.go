package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// File layout inside a Log directory:
//
//	wal-<gen>-0000.log   generation <gen>'s log segment, every shard's records
//	snap-<gen>           the snapshot that generation <gen> started from
//	snap-<gen>.tmp       an in-progress snapshot (ignored by recovery)
//
// A generation is the span between two snapshot cuts. Snapshot <g> captures
// all state up to the cut, and wal-<g>-* hold everything after it, so
// recovery is: load the newest complete snapshot, then replay every
// surviving generation's segments in ascending generation order. Files from
// generations older than the newest snapshot are garbage from an
// interrupted truncation and are deleted on open. (Data directories written
// before PR 25 hold one segment per shard, wal-<gen>-<shard>.log; one
// folder's records never span two of them, so they replay the same way.)

func walName(gen uint64) string { return fmt.Sprintf("wal-%08d-0000.log", gen) }

func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d", gen) }

// snapMagic heads every snapshot file.
var snapMagic = []byte("DMSNAP01")

// Log is the durability engine for one folder store: one WAL writer shared
// by every shard plus the snapshot/truncate cycle. All methods are safe for
// concurrent use except StartSnapshot, whose caller must single-flight
// snapshots.
type Log struct {
	dir    string
	cfg    Config
	gen    atomic.Uint64 // advanced by snapshots (background goroutine)
	shards int
	w      *writer

	// The snapshot trigger's inputs (see ShouldSnapshot): the records and
	// frame bytes logged since the last cut, and the size of the last
	// committed snapshot. The owner polls ShouldSnapshot after commits.
	appended  atomic.Int64
	walBytes  atomic.Int64
	snapBytes atomic.Int64
}

// Open opens (creating if necessary) the log in dir for a store with the
// given shard count, replaying recovered records through apply in a replay
// order that preserves each folder's mutation order. It is safe to reopen
// with a different shard count: records name their folder, and a
// generation's records of one folder sit in one file in append order.
func Open(dir string, shards int, cfg Config, apply func(*Record) error) (*Log, error) {
	if shards < 1 {
		return nil, fmt.Errorf("durable: shard count %d", shards)
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	snaps, walGens, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	// Pick the newest complete snapshot as the base generation.
	base := uint64(0)
	haveSnap := false
	for _, g := range snaps {
		if g >= base {
			base, haveSnap = g, true
		}
	}

	var snapBytes, walRecs, walBytes int64
	if haveSnap {
		if snapBytes, err = replaySnapshot(filepath.Join(dir, snapName(base)), apply); err != nil {
			return nil, err
		}
	}

	// Replay surviving generations in ascending order. Per-folder order
	// holds because a folder's records never span segments within one
	// generation, and every generation's records post-date the previous
	// generation's entirely.
	gen := base
	for _, g := range walGens {
		if haveSnap && g < base {
			continue
		}
		if g > gen {
			gen = g
		}
		for _, name := range stripeFiles(dir, g) {
			n, size, err := replaySegment(name, apply)
			if err != nil {
				return nil, err
			}
			walRecs += n
			walBytes += size
		}
	}

	// Drop garbage from interrupted truncations: segments and snapshots of
	// generations older than the base, and abandoned snapshot temp files.
	if err := removeStale(dir, base, haveSnap); err != nil {
		return nil, err
	}

	// Every open starts a fresh generation: replayed segments stay on disk
	// as read-only history until a snapshot supersedes them, and new
	// records — whose shard mapping may differ if the store was resized —
	// always replay after everything recovered here.
	gen++
	f, err := createSegment(dir, gen)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, cfg: cfg, shards: shards, w: newWriter(f, shards, cfg)}
	l.gen.Store(gen)
	// The trigger resumes where the last incarnation left it: the replayed
	// segments are log since the last cut, the replayed snapshot is what the
	// next one will cost — so a log that crashed with a full generation
	// compacts soon after reopening, and one that had just compacted does not.
	l.appended.Store(walRecs)
	l.walBytes.Store(walBytes)
	l.snapBytes.Store(snapBytes)
	mWALBytes.Add(walBytes)
	mSnapshotBytes.Add(snapBytes)
	return l, nil
}

// createSegment creates generation gen's log segment and makes its
// directory entry durable before any record is acknowledged against it.
// Without that, a crash can lose the new segment's directory entry while a
// later snapshot's deletions of the old generation survive — leaving a data
// directory whose acknowledged records live in a file no directory entry
// names. The segment must not exist yet (O_EXCL): a generation's segment is
// created once, so no path can truncate one a live log is writing.
func createSegment(dir string, gen uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName(gen)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, err
	}
	syncDir(dir)
	return f, nil
}

// scanDir lists complete snapshot generations and wal generations present.
func scanDir(dir string) (snaps, walGens []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[uint64]bool)
	for _, e := range ents {
		g, isWAL, ok := fileGen(e.Name())
		switch {
		case ok && !isWAL:
			snaps = append(snaps, g)
		case ok && !seen[g]:
			seen[g] = true
			walGens = append(walGens, g)
		}
	}
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
	return snaps, walGens, nil
}

// fileGen parses the generation out of a wal segment's or a completed
// snapshot's file name; ok is false for any other name, snapshot temp files
// included.
func fileGen(name string) (g uint64, isWAL, ok bool) {
	var num string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		num, _, isWAL = strings.Cut(strings.TrimPrefix(name, "wal-"), "-")
		if !isWAL {
			return 0, false, false
		}
	case strings.HasPrefix(name, "snap-") && !strings.HasSuffix(name, ".tmp"):
		num = strings.TrimPrefix(name, "snap-")
	default:
		return 0, false, false
	}
	g, err := strconv.ParseUint(num, 10, 64)
	return g, isWAL, err == nil
}

// stripeFiles lists generation g's segment files in name order: one, or one
// stripe per shard in a data directory written before PR 25.
func stripeFiles(dir string, g uint64) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("wal-%08d-*.log", g)))
	sort.Strings(matches)
	return matches
}

// replaySegment applies every intact frame of one segment file, stopping at a
// torn tail (everything after a tear was never acknowledged durable). It
// reports the records applied and the bytes they occupy.
func replaySegment(name string, apply func(*Record) error) (n, size int64, err error) {
	buf, err := os.ReadFile(name)
	if err != nil {
		return 0, 0, err
	}
	n, rest, err := replayFrames(name, buf, apply)
	return n, int64(len(buf) - len(rest)), err
}

// replaySnapshot applies every record of a completed snapshot and reports
// the file's size. Unlike a wal segment, a completed (renamed) snapshot has no
// legitimate torn tail, so any framing failure before EOF is corruption.
func replaySnapshot(name string, apply func(*Record) error) (size int64, err error) {
	buf, err := os.ReadFile(name)
	if err != nil {
		return 0, err
	}
	if len(buf) < len(snapMagic) || string(buf[:len(snapMagic)]) != string(snapMagic) {
		return 0, fmt.Errorf("%w: %s: bad snapshot header", ErrCorrupt, filepath.Base(name))
	}
	_, rest, err := replayFrames(name, buf[len(snapMagic):], apply)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%w: %s: torn frame in completed snapshot", ErrCorrupt, filepath.Base(name))
	}
	return int64(len(buf)), err
}

// replayFrames decodes and applies frames from buf until one fails its
// length or CRC check; it returns how many it applied and what is left.
func replayFrames(name string, buf []byte, apply func(*Record) error) (n int64, rest []byte, err error) {
	for {
		body, next, ok := nextFrame(buf)
		if !ok {
			return n, buf, nil
		}
		rec, err := DecodeRecord(body)
		if err != nil {
			// The frame's CRC held but the body is malformed: corruption,
			// not a torn tail.
			return n, buf, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(name), err)
		}
		if err := apply(rec); err != nil {
			return n, buf, fmt.Errorf("durable: replay %s: %w", filepath.Base(name), err)
		}
		n++
		buf = next
	}
}

// removeStale deletes files superseded by the base snapshot, plus abandoned
// snapshot temp files. Best-effort: a leftover is re-deleted next open.
func removeStale(dir string, base uint64, haveSnap bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		g, _, ok := fileGen(name)
		if strings.HasSuffix(name, ".tmp") || (haveSnap && ok && g < base) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// Append logs one record of the shard and returns its commit handle. The
// caller holds the Store shard lock, which orders the records of each
// folder. A dead log returns 0; Commit reports why.
//
//memolint:requires-shard-lock
func (l *Log) Append(shard int, rec *Record) uint64 {
	seq, size := l.w.append(shard, rec)
	l.appended.Add(1)
	l.walBytes.Add(int64(size))
	mAppends.Inc()
	mWALBytes.Add(int64(size))
	return seq
}

// A Completion is told the fate of a record it awaits: nil once the record
// is durable, or the log's terminal error once it never will be. It runs
// once, on whichever goroutine decides that — the syncer's, or Close's,
// Crash's or a snapshot's, outside the log's locks, in seq order among the
// records decided together — or on Await's caller when the fate is already
// known. It must not block: the syncer's next cycle waits for it.
type Completion interface {
	Complete(err error)
}

// Await hands c the fate of record seq, Append's result: no completion
// runs before the fsync that covers its record. Seq 0 is a barrier on
// everything appended so far — the wait a deduplicated op owes its
// original's record — and fails on a dead log, as the dead append a 0 also
// stands for must. It never blocks.
func (l *Log) Await(seq uint64, c Completion) { l.w.await(seq, c) }

// Commit blocks until the log has made record seq durable, and its error
// gates the ack: an in-process wait on Await, run outside the shard lock.
// The unnamed first parameter is a shard index it ignores.
//
//memolint:must-check-error
//memolint:blocks
func (l *Log) Commit(_ int, seq uint64) error {
	done := make(commitWait, 1)
	l.w.await(seq, done)
	return <-done
}

// commitWait is Commit's completion.
type commitWait chan error

func (c commitWait) Complete(err error) { c <- err }

// ShouldSnapshot reports whether a truncation cycle has paid for itself: at
// least SnapshotEvery records were logged since the last cut (the floor,
// which keeps a small state from compacting on every handful of records),
// and their bytes have reached the size of the last committed snapshot. A
// snapshot costs about what the last one did, so it is written once per at
// least that many bytes of log: snapshot writes stay within ~2x of WAL
// writes (~1x once the state stops growing), the directory within ~3x the
// snapshot (old snapshot, log, the new one in progress), and replay within
// one snapshot plus as much log again.
// The owner single-flights the actual snapshot.
func (l *Log) ShouldSnapshot() bool {
	return l.cfg.SnapshotEvery > 0 &&
		l.appended.Load() >= int64(l.cfg.SnapshotEvery) &&
		l.walBytes.Load() >= l.snapBytes.Load()
}

// Gen reports the current generation (diagnostics and tests).
func (l *Log) Gen() uint64 { return l.gen.Load() }

// Close flushes the log and closes its files. Pending records complete
// durable; subsequent appends are dead.
func (l *Log) Close() error {
	l.retireGauges()
	return l.w.close()
}

// Crash abandons buffered records and slams the files shut — the in-process
// stand-in for SIGKILL. What earlier sync cycles wrote survives in the
// files; pending records fail with ErrCrashed.
func (l *Log) Crash() {
	l.retireGauges()
	l.w.crash()
}

// retireGauges withdraws this log's share of the process-wide size gauges.
func (l *Log) retireGauges() {
	mWALBytes.Add(-l.walBytes.Swap(0))
	mSnapshotBytes.Add(-l.snapBytes.Swap(0))
}

// Snapshot is one in-progress snapshot + truncation cycle. The owner cuts
// every shard exactly once (holding that shard's lock across the cut), then
// commits. See StartSnapshot.
type Snapshot struct {
	l       *Log
	gen     uint64 // the generation this snapshot opens
	tmp     *os.File
	buf     []byte
	size    int64 // bytes written to tmp so far
	nrec    int64
	started time.Time
	// The log's trigger counters when the snapshot began: what Commit
	// subtracts, so records logged while it was being written still count
	// toward the next one.
	baseRecs, baseBytes int64
}

// StartSnapshot begins a snapshot into the next generation: it creates that
// generation's segment and opens the log's window onto it (see CutShard).
// The caller must single-flight snapshots and, on any error from
// CutShard/AppendRecord, Abort. Even an aborted snapshot advances the
// generation — the new segment is already live — which is safe: recovery
// replays every generation the incomplete snapshot failed to supersede.
// A dead log starts nothing and creates no file.
func (l *Log) StartSnapshot() (*Snapshot, error) {
	if err := l.w.aliveErr(); err != nil {
		return nil, err
	}
	gen := l.gen.Load() + 1
	tmpName := filepath.Join(l.dir, snapName(gen)+".tmp")
	tmp, err := os.OpenFile(tmpName, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, err
	}
	_, err = tmp.Write(snapMagic)
	var next *os.File
	if err == nil {
		next, err = createSegment(l.dir, gen)
	}
	if err == nil {
		if err = l.w.openWindow(next); err != nil {
			next.Close()
		}
	}
	if err != nil {
		tmp.Close()
		_ = os.Remove(tmpName)
		return nil, err
	}
	return &Snapshot{
		l: l, gen: gen, tmp: tmp, size: int64(len(snapMagic)), started: time.Now(),
		baseRecs: l.appended.Load(), baseBytes: l.walBytes.Load(),
	}, nil
}

// CutShard captures one shard: it routes the shard's later records to the
// new generation's segment and dumps the shard's in-memory state (via dump,
// which emits compacted records). The caller MUST hold that shard's Store
// lock for the whole call — that is what makes the cut a consistent point
// between the dumped state and the post-cut records. Until the window ends,
// a shard not yet cut keeps logging into the old segment: its records there
// are in its dump, and the new segment holds none of them, so replay sees
// each record once whether or not the snapshot commits.
func (s *Snapshot) CutShard(shard int, dump func(emit func(*Record) error) error) error {
	if err := s.l.w.cutShard(shard); err != nil {
		return err
	}
	if err := dump(s.AppendRecord); err != nil {
		return err
	}
	return s.flush()
}

// AppendRecord writes one record into the snapshot body. Used by CutShard
// dumps and for trailer records (the dedup-token table) that are not owned
// by any single shard.
func (s *Snapshot) AppendRecord(rec *Record) error {
	s.buf = AppendRecord(s.buf, rec)
	s.nrec++
	if len(s.buf) >= snapFlushBytes {
		return s.flush()
	}
	return nil
}

// snapFlushBytes is how much of a snapshot body is buffered per write.
const snapFlushBytes = 1 << 20

func (s *Snapshot) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.tmp.Write(s.buf)
	s.size += int64(len(s.buf))
	s.buf = s.buf[:0]
	return err
}

// Commit finalizes the snapshot: end the log's window, fsync, rename into
// place, fsync the directory, then delete the superseded generation's files.
// After Commit the log's trigger counters restart toward the next snapshot.
func (s *Snapshot) Commit() error {
	// A dump may hold records not yet durable when their shard was cut:
	// ending the window syncs them before the snapshot can supersede the
	// segment they are in, and fails if the log died meanwhile.
	err := s.l.w.endWindow()
	if err == nil {
		err = s.flush()
	}
	if err == nil {
		err = s.tmp.Sync()
	}
	if err != nil {
		s.Abort()
		return err
	}
	if err := s.tmp.Close(); err != nil {
		s.abortKeepGen()
		return err
	}
	final := filepath.Join(s.l.dir, snapName(s.gen))
	if err := os.Rename(final+".tmp", final); err != nil {
		s.abortKeepGen()
		return err
	}
	syncDir(s.l.dir)
	mSnapshots.Inc()
	mSnapshotNS.Observe(int64(time.Since(s.started)))
	mSnapshotRecords.Add(s.nrec)
	// The rename is the commit point; everything below is cleanup. Every
	// generation below the new one is superseded — there may be several,
	// accumulated across restarts without an intervening snapshot.
	s.l.gen.Store(s.gen)
	// Only what was logged before the snapshot began is certainly in it;
	// everything since stays counted toward the next cycle. (Records that
	// reached a not-yet-cut shard are in both — counting them again only
	// makes the next snapshot marginally earlier.)
	s.l.appended.Add(-s.baseRecs)
	s.l.walBytes.Add(-s.baseBytes)
	mWALBytes.Add(-s.baseBytes)
	mSnapshotBytes.Add(s.size - s.l.snapBytes.Swap(s.size))
	ents, err := os.ReadDir(s.l.dir)
	if err != nil {
		return nil
	}
	for _, e := range ents {
		if g, _, ok := fileGen(e.Name()); ok && g < s.gen {
			_ = os.Remove(filepath.Join(s.l.dir, e.Name()))
		}
	}
	return nil
}

// Abort discards the snapshot temp file and ends the log's window. The log
// stays on the new generation's segment (recovery handles a generation with
// no snapshot), so the log's generation still advances.
func (s *Snapshot) Abort() {
	_ = s.tmp.Close()
	s.abortKeepGen()
}

func (s *Snapshot) abortKeepGen() {
	_ = s.l.w.endWindow() // a dead log reports itself on every later commit
	_ = os.Remove(filepath.Join(s.l.dir, snapName(s.gen)+".tmp"))
	s.l.gen.Store(s.gen)
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable. Best-effort: some platforms refuse to fsync
// directories. Called at every directory-shape commit point: a segment
// created (Open, StartSnapshot) and a snapshot renamed into place
// (Snapshot.Commit).
func syncDir(dir string) {
	mDirSyncs.Inc()
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
