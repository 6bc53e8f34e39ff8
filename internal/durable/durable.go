// Package durable is the persistence engine under a folder server's Store:
// one write-ahead log per store with group commit across all its shards,
// periodic snapshots with log truncation, and replay-on-open recovery.
//
// The paper's folder servers hold their directories in memory ("exclusive
// access to their folders", §4.1) and lose them on a crash. This package
// gives a Store crash durability without giving up the sharded design:
//
//   - Every mutating operation (put, put_delayed, take, delayed-release)
//     appends one Record to the log while the lock of the shard it touched
//     is held — so per-folder record order always matches per-folder
//     application order, which is all replay needs (folders never span
//     shards, and no record touches two shards). Every shard encodes into
//     the same buffer, under one mutex that nests inside the shard locks.
//
//   - Appends only buffer; durability is bought by Await, which hands a
//     Completion the record's fate once the log's one syncer has written
//     and fsynced it (Commit is an in-process wait on it). The syncer
//     drains by backpressure, mirroring the rpc batcher: one fsync's
//     duration is exactly the window in which the next batch of records —
//     from every shard — accumulates, so the sync cost amortizes over
//     concurrent operations by itself (SyncNever skips the fsync and trusts
//     the OS page cache). A per-record fsync would buy no more durability:
//     a group-committed ack already waits for the fsync that covers its
//     record. Records are encoded once, straight into the contiguous
//     buffer, and a group commit is one write(2) of it.
//
//   - When the log has outgrown the last snapshot (at least
//     Config.SnapshotEvery records, and at least as many bytes as that
//     snapshot holds; see Log.ShouldSnapshot), the owner cuts a snapshot.
//     It opens the next generation's segment, then shard by shard — under
//     that shard's lock — routes the shard's later records to the new
//     segment and dumps its in-memory state as compacted records into a
//     temp file. Until every shard is cut, shards not yet cut keep logging
//     into the old segment, whose records their dumps include. Commit syncs
//     and closes the old segment, then fsyncs and renames the temp file, so
//     a crash at any point leaves either the old generation (snapshot tmp
//     ignored) or the new one (stale files deleted on open) — never a torn
//     mixture.
//
//   - Open replays the newest complete snapshot, then every surviving log
//     generation in order. Torn record frames (length or CRC check fails)
//     mark the end of a segment: everything before them was acknowledged
//     durable, everything after was not yet acknowledged, so stopping at
//     the tear is exactly at-most-once. Replayed segments are never written
//     again — every open starts a fresh generation, and the next snapshot
//     deletes the superseded history.
//
// Records also carry at-most-once dedup tokens: a put retried after a link
// failure or a crash carries the same client-generated token, the Store
// records applied tokens through the same log, and replay restores them —
// so a maybe-applied put can be re-sent safely across both failure modes.
package durable

import (
	"errors"
	"fmt"
)

// Errors.
var (
	// ErrClosed reports an operation on a cleanly closed log.
	ErrClosed = errors.New("durable: log closed")
	// ErrCrashed reports an operation on a log torn down by Crash — the
	// in-process stand-in for SIGKILL. Buffered records are abandoned.
	ErrCrashed = errors.New("durable: log crashed")
	// ErrCorrupt reports recovery hitting inconsistent state that cannot be
	// explained by a torn tail (e.g. a take with no matching put).
	ErrCorrupt = errors.New("durable: log corrupt")
)

// SyncMode selects how Commit buys durability.
type SyncMode int

const (
	// SyncBatch (the default) group-commits: one fsync covers every record
	// that accumulated while the previous fsync ran, and Commit returns only
	// once the fsync covering its record has.
	SyncBatch SyncMode = iota
	// SyncNever writes without fsync: records survive a process crash (the
	// OS holds them) but not a host crash.
	SyncNever
)

func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("sync-mode(%d)", int(m))
}

// ParseSyncMode parses a -fsync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown sync mode %q (want batch|never)", s)
}

// DefaultSnapshotEvery is the minimum record count between snapshots.
const DefaultSnapshotEvery = 8192

// Config tunes a Log. The zero value is the recommended configuration:
// group commit, snapshots no closer than DefaultSnapshotEvery records.
type Config struct {
	// Sync selects the fsync policy (zero = SyncBatch).
	Sync SyncMode
	// SnapshotEvery is the minimum number of appended records between
	// snapshot + truncation cycles (0 = DefaultSnapshotEvery, negative =
	// never). Past it, a cycle runs once the log is as large as the last
	// snapshot; see Log.ShouldSnapshot.
	SnapshotEvery int
}

func (c Config) withDefaults() Config {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = DefaultSnapshotEvery
	}
	return c
}
