// Package durable stubs the WAL surface of repro/internal/durable with the
// same lock-discipline markers.
package durable

type Record struct{ Key string }

type Log struct{ seq uint64 }

// Append relies on the caller's shard critical section: per-shard WAL order
// must equal application order.
//
//memolint:requires-shard-lock
func (l *Log) Append(shard int, rec *Record) uint64 {
	l.seq++
	return l.seq
}

// Commit blocks on fsync; holding a shard lock across it would stall every
// operation on the stripe.
//
//memolint:forbids-shard-lock
func (l *Log) Commit(shard int, seq uint64) error { return nil }

// Barrier waits for all appended records to be durable.
//
//memolint:forbids-shard-lock
func (l *Log) Barrier() error { return nil }
