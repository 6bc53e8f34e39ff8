package folder

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/durable"
	"repro/internal/symbol"
)

// OpenStore opens a durable Store backed by the write-ahead log in dir,
// replaying any recovered state (visible memos, still-hidden put_delayed
// values, and applied dedup tokens) before the first operation is accepted.
// The directory is created on first use. Every mutating operation on the
// returned store is acknowledged only after its record is committed per
// dcfg's sync mode, and the store snapshots + truncates the log in the
// background as records accumulate.
func OpenStore(dir string, dcfg durable.Config, opts ...Option) (*Store, error) {
	s := NewStore(opts...)
	lg, err := durable.Open(dir, len(s.shards), dcfg, s.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("folder: open store %s: %w", dir, err)
	}
	s.wal = lg
	return s, nil
}

// Log exposes the durability engine (diagnostics and tests); nil on a
// memory-only store.
func (s *Store) Log() *durable.Log { return s.wal }

// Close flushes and closes the write-ahead log. Pending operation commits
// complete durable first. A memory-only store closes trivially.
//
// Close first joins a running background snapshot cycle and keeps any later
// one from starting (stopSnapshots): the orderly-shutdown contract is that
// no goroutine is still writing into the data directory when Close returns.
// (Replay re-arms the snapshot counter, so a freshly reopened store's first
// commit can fire a cycle moments before Close.) Concurrent mutating
// operations during Close remain the caller's responsibility.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	s.stopSnapshots()
	return s.wal.Close()
}

// Crash abandons buffered-but-uncommitted log records and slams the log
// shut — the in-process stand-in for SIGKILL, used by the crash-recovery
// harness. Acknowledged operations survive in the log; unacknowledged ones
// fail their commit and are rolled back or reported to the caller. Like a
// kill it also stops the store's background work: the log dies first, so a
// running snapshot cycle's next step fails and it aborts, and Crash returns
// only once that cycle has ended. Nothing writes into the data directory
// afterwards, so a store reopened on it right away owns it alone.
func (s *Store) Crash() {
	if s.wal != nil {
		s.wal.Crash()
		s.stopSnapshots()
	}
}

// stopSnapshots waits out a running snapshot cycle and keeps the cycle's
// lock for good, so no later commit starts another. Close and Crash share it.
func (s *Store) stopSnapshots() { s.stopSnaps.Do(s.snapMu.Lock) }

// applyRecord replays one recovered record. Replay runs before the store is
// published, but it takes the shard locks anyway — they are uncontended and
// keep the mutation paths uniform. Replay rebuilds exactly the memory the
// live store had at the log's last record: a released delayed entry left its
// folder in the critical section that logged its RecRelease, so replay keeps
// it until that record and a RecRelease always finds its entry, as a RecTake
// always finds its memo; a miss is corruption. Replay rebuilds state only: the
// operation counters behind the folder_*_total series stay zero, so a
// restarted store reports what happened in this incarnation, not its entire
// logged history.
func (s *Store) applyRecord(rec *durable.Record) error {
	var cb [canonBuf]byte
	canon := rec.Key.AppendCanon(cb[:0])
	si := int(s.shardIndex(rec.Key))
	sh := &s.shards[si]
	switch rec.Type {
	case durable.RecPut:
		sh.mu.Lock()
		f := sh.getFold(canon)
		f.items = append(f.items, bytes.Clone(rec.Payload))
		// Deliberately NOT clearing f.delayed: the live put only marked
		// those entries in flight, and each leaves only with its own
		// RecRelease record, logged once its re-deposit was safe. An entry
		// that survives here is re-released by the next trigger put, and
		// its release token deduplicates the delivery if the first one
		// actually landed.
		s.tokens.note(rec.Token)
		sh.mu.Unlock()
	case durable.RecPutDelayed:
		sh.mu.Lock()
		f := sh.getFold(canon)
		f.delayed = append(f.delayed, delayedEntry{val: bytes.Clone(rec.Payload), dest: rec.Dest.Clone(), rel: rec.Rel})
		s.tokens.note(rec.Token)
		sh.mu.Unlock()
	case durable.RecRelease:
		sh.mu.Lock()
		f := sh.getFold(canon)
		found := f.endRelease(rec.Token, true)
		sh.gcFold(f)
		sh.mu.Unlock()
		if !found {
			return fmt.Errorf("%w: release of %v finds no hidden value with its token", durable.ErrCorrupt, rec.Key)
		}
	case durable.RecTake:
		sh.mu.Lock()
		f := sh.getFold(canon)
		i := slices.IndexFunc(f.items, func(it []byte) bool { return bytes.Equal(it, rec.Payload) })
		if i >= 0 {
			// A tokened take: re-cache its result — the folder's name and
			// the removed item itself, as the live take does — so a
			// post-crash retry is answered from the cache instead of
			// consuming a second memo.
			s.tokens.noteTakeCache(tokSlot{tok: rec.Token, kind: slotTake, name: f.name, data: f.removeAt(i)})
		}
		sh.gcFold(f)
		sh.mu.Unlock()
		if i < 0 {
			// Per-folder record order guarantees the put replays before its
			// take; a miss is corruption, not a tolerable anomaly.
			return fmt.Errorf("%w: take of %v finds no matching memo", durable.ErrCorrupt, rec.Key)
		}
	case durable.RecToken:
		s.tokens.note(rec.Token)
	case durable.RecTakeCache:
		sl := tokSlot{tok: rec.Token, kind: slotEmpty}
		if !rec.Empty {
			sl = tokSlot{tok: rec.Token, kind: slotTake, name: string(canon), data: bytes.Clone(rec.Payload)}
		}
		s.tokens.noteTakeCache(sl)
	default:
		return fmt.Errorf("%w: unexpected record type %v", durable.ErrCorrupt, rec.Type)
	}
	return nil
}

// maybeSnapshot starts a background snapshot + truncation cycle when enough
// records have accumulated. Single-flight, under snapMu; failures leave the
// log serving (it simply carries more history until the next attempt).
func (s *Store) maybeSnapshot() {
	if s.wal == nil || !s.wal.ShouldSnapshot() || !s.snapMu.TryLock() {
		return
	}
	go func() {
		defer s.snapMu.Unlock()
		_ = s.snapshot()
	}()
}

// snapshot cuts every shard under its own lock — the store pauses one shard
// at a time, never globally — then commits the snapshot, truncating all
// superseded log generations.
func (s *Store) snapshot() error {
	snap, err := s.wal.StartSnapshot()
	if err != nil {
		return err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		err := snap.CutShard(i, func(emit func(*durable.Record) error) error {
			return dumpShard(sh, emit)
		})
		sh.mu.Unlock()
		if err != nil {
			snap.Abort()
			return err
		}
	}
	// The token table is global, not per-shard; dump it after every cut so
	// a token noted before its shard's cut is never lost (one noted after
	// rides in the new generation's records, and double-noting is
	// idempotent). Take results resolve under their shard's lock, so the
	// same cut/dump ordering covers them: a result published before its
	// shard's cut is visible here; one published after rides in the new
	// generation's tokened RecTake. In-flight take claims have applied
	// nothing yet and are not in the ring at all. The dump is streamed in
	// bounded chunks of ring positions, the table unlocked between them, and
	// every chunk runs after every cut, so the argument holds chunk by chunk:
	// a token noted after its chunk was copied is in the new generation's log,
	// and a position overwritten before its chunk held a fact the table has
	// forgotten anyway.
	// One record and one key reused for the whole dump: nothing allocated per
	// token (a take's slot holds its folder's name, parsed back here).
	var rec durable.Record
	var key symbol.Key
	err = s.tokens.stream(func(chunk []tokSlot) error {
		for i := range chunk {
			d := &chunk[i]
			switch d.kind {
			case slotPut:
				rec = durable.Record{Type: durable.RecToken, Token: d.tok}
			case slotEmpty:
				rec = durable.Record{Type: durable.RecTakeCache, Token: d.tok, Empty: true}
			default:
				if err := symbol.ParseCanonInto(&key, d.name); err != nil {
					return fmt.Errorf("%w: take cache of token %#x: %v", durable.ErrCorrupt, d.tok, err)
				}
				rec = durable.Record{Type: durable.RecTakeCache, Token: d.tok, Key: key, Payload: d.data}
			}
			if err := snap.AppendRecord(&rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		snap.Abort()
		return err
	}
	return snap.Commit()
}

// dumpShard emits one shard's state as compacted records: per folder the
// visible items then the hidden delayed values, releases in flight included
// (replay loads them unmarked, and the next trigger re-releases them).
// Replay order does not matter: a replayed put deliberately leaves the
// folder's delayed list alone (see applyRecord). Caller holds the shard lock.
func dumpShard(sh *shard, emit func(*durable.Record) error) error {
	var rec durable.Record // reused, with its key: the dump allocates neither per folder nor per memo
	var key symbol.Key
	for canon, f := range sh.folders {
		if err := symbol.ParseCanonInto(&key, canon); err != nil {
			return fmt.Errorf("%w: unparseable folder key %q", durable.ErrCorrupt, canon)
		}
		for _, it := range f.items {
			rec = durable.Record{Type: durable.RecPut, Key: key, Payload: it}
			if err := emit(&rec); err != nil {
				return err
			}
		}
		for _, d := range f.delayed {
			rec = durable.Record{
				Type: durable.RecPutDelayed, Key: key, Dest: d.dest, Payload: d.val,
				Rel: d.rel,
			}
			if err := emit(&rec); err != nil {
				return err
			}
		}
	}
	return nil
}
