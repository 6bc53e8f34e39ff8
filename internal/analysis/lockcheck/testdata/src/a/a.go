// Package a exercises lockcheck: WAL appends dominated by the shard lock,
// fsyncs outside it, never two shard locks at once.
package a

import (
	"sync"

	"durable"
)

type shard struct {
	mu sync.Mutex //memolint:shard-lock
	n  int
}

type store struct {
	shards [4]shard
	wal    *durable.Log
}

// Good is the PutToken shape: append inside the critical section, commit
// (the fsync) after the unlock.
func (s *store) Good(i int) error {
	sh := &s.shards[i]
	sh.mu.Lock()
	seq := s.wal.Append(i, &durable.Record{Key: "k"})
	sh.n++
	sh.mu.Unlock()
	return s.wal.Commit(i, seq)
}

// AppendUnlocked breaks WAL ordering: nothing dominates the append.
func (s *store) AppendUnlocked(i int) {
	s.wal.Append(i, &durable.Record{Key: "k"}) // want `requires the shard lock`
}

// AppendOneBranch only locks on one path; the append is not dominated.
func (s *store) AppendOneBranch(i int, c bool) {
	sh := &s.shards[i]
	if c {
		sh.mu.Lock()
	}
	s.wal.Append(i, &durable.Record{Key: "k"}) // want `requires the shard lock`
	if c {
		sh.mu.Unlock()
	}
}

// CommitLocked fsyncs inside the critical section (with the idiomatic
// deferred unlock, which releases only at exit — too late).
func (s *store) CommitLocked(i int, seq uint64) error {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.wal.Commit(i, seq) // want `must not run under a shard lock`
}

// BarrierMaybeLocked fsyncs while the lock MAY be held.
func (s *store) BarrierMaybeLocked(i int, c bool) {
	sh := &s.shards[i]
	if c {
		sh.mu.Lock()
	}
	s.wal.Barrier() // want `must not run under a shard lock`
	if c {
		sh.mu.Unlock()
	}
}

// Nested acquires a second stripe while holding the first: the deadlock the
// one-at-a-time discipline exists to prevent.
func (s *store) Nested(i, j int) {
	a, b := &s.shards[i], &s.shards[j]
	a.mu.Lock()
	b.mu.Lock() // want `acquired while`
	b.n, a.n = a.n, b.n
	b.mu.Unlock()
	a.mu.Unlock()
}

// Sequential visits stripes one at a time; no overlap, no report.
func (s *store) Sequential(i, j int) {
	a, b := &s.shards[i], &s.shards[j]
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// logLocked documents "caller holds the shard lock": its body gets a
// virtual lock, and every call site is checked instead.
//
//memolint:requires-shard-lock
func (s *store) logLocked(i int) {
	s.wal.Append(i, &durable.Record{Key: "k"})
}

// GoodHelper holds the lock across the helper.
func (s *store) GoodHelper(i int) {
	sh := &s.shards[i]
	sh.mu.Lock()
	s.logLocked(i)
	sh.mu.Unlock()
}

// BadHelper calls the requires-lock helper with no lock.
func (s *store) BadHelper(i int) {
	s.logLocked(i) // want `requires the shard lock`
}
