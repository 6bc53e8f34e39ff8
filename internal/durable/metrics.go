package durable

import "repro/internal/obs"

// Process-wide durability metrics, aggregated over every Log.
// The group-commit size histogram is the WAL's batching efficiency: mean
// entries per fsync is durable_commit_batch_sum / durable_commit_batch_count,
// the amortization factor the backpressure syncer buys. Dedup-token hits are
// a folder-layer event and live in the folder_dup_puts series.
var (
	mAppends = obs.Default.Counter("durable_appends_total",
		"records appended to the WAL")
	mFsyncNS = obs.Default.Histogram("durable_fsync_ns",
		"write+fsync latency per group commit, nanoseconds")
	mCommitBatch = obs.Default.Histogram("durable_commit_batch",
		"records covered per group commit")
	mSnapshots = obs.Default.Counter("durable_snapshots_total",
		"snapshot/truncate cycles committed")
	mSnapshotNS = obs.Default.Histogram("durable_snapshot_ns",
		"snapshot duration from start to commit, nanoseconds")
	mSnapshotRecords = obs.Default.Counter("durable_snapshot_records_total",
		"records written into committed snapshots")
	mWALBytes = obs.Default.Gauge("durable_wal_bytes",
		"WAL frame bytes logged since the last snapshot cut (replayed segments included)")
	mSnapshotBytes = obs.Default.Gauge("durable_snapshot_bytes",
		"size of the last committed snapshot, bytes")
	mDirSyncs = obs.Default.Counter("durable_dir_syncs_total",
		"data-directory fsyncs at shape commit points (open, snapshot)")
)
