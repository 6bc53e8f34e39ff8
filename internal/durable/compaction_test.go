package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/symbol"
)

func discard(*Record) error { return nil }

// appendCommit logs n 32-byte puts round-robin over the shards and waits for
// each; it returns the frame bytes they occupy.
func appendCommit(t testing.TB, l *Log, n int) (size int64) {
	t.Helper()
	payload := make([]byte, 32)
	for i := 0; i < n; i++ {
		r := &Record{Type: RecPut, Key: symbol.K(1, uint32(i)), Payload: payload, Token: uint64(i + 1)}
		size += int64(len(AppendRecord(nil, r)))
		sh := i % l.shards
		if err := l.Commit(sh, l.Append(sh, r)); err != nil {
			t.Fatal(err)
		}
	}
	return size
}

// cutAll runs one whole snapshot cycle that dumps nrec records per shard.
func cutAll(t testing.TB, l *Log, nrec int) {
	t.Helper()
	snap, err := l.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	finishSnapshot(t, l, snap, nrec)
}

func finishSnapshot(t testing.TB, l *Log, snap *Snapshot, nrec int) {
	t.Helper()
	r := &Record{Type: RecPut, Key: symbol.K(2), Payload: make([]byte, 32)}
	for sh := 0; sh < l.shards; sh++ {
		err := snap.CutShard(sh, func(emit func(*Record) error) error {
			for i := 0; i < nrec; i++ {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestShouldSnapshot: the trigger needs the record floor AND a log as large
// as the last snapshot; a negative floor disables it; Open resumes both
// counters from what it replays.
func TestShouldSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		every                     int
		appended, walBytes, snapB int64
		want                      bool
	}{
		{"floor not reached", 8, 7, 1 << 20, 100, false},
		{"bytes not reached", 8, 8000, 99, 100, false},
		{"both reached", 8, 8, 100, 100, true},
		{"no snapshot yet fires at the floor", 8, 8, 1, 0, true},
		{"disabled", -1, 1 << 30, 1 << 30, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(t.TempDir(), 1, Config{SnapshotEvery: tc.every}, discard)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			l.appended.Store(tc.appended)
			l.walBytes.Store(tc.walBytes)
			l.snapBytes.Store(tc.snapB)
			if got := l.ShouldSnapshot(); got != tc.want {
				t.Fatalf("ShouldSnapshot() = %v, want %v", got, tc.want)
			}
		})
	}

	t.Run("seeded by Open", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{SnapshotEvery: 8}
		l, err := Open(dir, 2, cfg, discard)
		if err != nil {
			t.Fatal(err)
		}
		appendCommit(t, l, 20)
		cutAll(t, l, 50) // a snapshot far larger than the log that follows
		tail := appendCommit(t, l, 12)
		if l.ShouldSnapshot() {
			t.Fatal("12 small records after a 100-record snapshot triggered a cycle")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		snapInfo, err := os.Stat(filepath.Join(dir, snapName(l.Gen())))
		if err != nil {
			t.Fatal(err)
		}

		r, err := Open(dir, 2, cfg, discard)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got := r.appended.Load(); got != 12 {
			t.Errorf("reopened record count = %d, want the 12 stripe records (snapshot records are not log)", got)
		}
		if got := r.walBytes.Load(); got != tail {
			t.Errorf("reopened wal bytes = %d, want %d", got, tail)
		}
		if got := r.snapBytes.Load(); got != snapInfo.Size() {
			t.Errorf("reopened snapshot bytes = %d, want the file's %d", got, snapInfo.Size())
		}
		if r.ShouldSnapshot() {
			t.Error("a freshly compacted log wants a snapshot right after reopening")
		}
		// Outgrow the snapshot: the replayed tail counts toward the trigger.
		for !r.ShouldSnapshot() {
			appendCommit(t, r, 1)
		}
		if got, want := r.walBytes.Load(), snapInfo.Size(); got < want || got > want+100 {
			t.Errorf("triggered at %d wal bytes, want just past the snapshot's %d", got, want)
		}
	})
}

// TestCommitKeepsRecordsLoggedDuringSnapshot: records appended to the new
// generation while a snapshot is being written still count toward the next
// one (Commit used to zero the counter and drop them).
func TestCommitKeepsRecordsLoggedDuringSnapshot(t *testing.T) {
	l, err := Open(t.TempDir(), 2, Config{SnapshotEvery: 4}, discard)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendCommit(t, l, 10)
	snap, err := l.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	during := appendCommit(t, l, 7)
	finishSnapshot(t, l, snap, 3)
	if got := l.appended.Load(); got != 7 {
		t.Errorf("records counted after commit = %d, want the 7 logged during the snapshot", got)
	}
	if got := l.walBytes.Load(); got != during {
		t.Errorf("wal bytes counted after commit = %d, want %d", got, during)
	}
	if got := l.snapBytes.Load(); got <= int64(len(snapMagic)) {
		t.Errorf("snapshot bytes = %d after a 6-record snapshot", got)
	}
}

// TestCrashInsideSnapshotWindowReplaysEachRecordOnce: records committed while
// a snapshot window is open — on shards already cut and on shards not yet
// cut — replay exactly once, in per-shard order, whether the log crashes
// inside the window or the snapshot commits. An uncut shard's records must
// stay in the old segment: its dump will hold them, so a copy in the new
// segment would apply them twice.
func TestCrashInsideSnapshotWindowReplaysEachRecordOnce(t *testing.T) {
	const shards = 4
	for _, commit := range []bool{false, true} {
		name := "crash inside the window"
		if commit {
			name = "commit then close"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, shards, Config{SnapshotEvery: -1}, discard)
			if err != nil {
				t.Fatal(err)
			}
			state := make([][]uint64, shards) // the store: tokens applied per shard, in order
			var tok uint64
			put := func(sh int, tok uint64) *Record {
				return &Record{Type: RecPut, Key: symbol.K(symbol.Symbol(sh + 1)), Payload: []byte("v"), Token: tok}
			}
			logAll := func() {
				for i := 0; i < 3; i++ {
					for sh := 0; sh < shards; sh++ {
						tok++
						if err := l.Commit(sh, l.Append(sh, put(sh, tok))); err != nil {
							t.Fatal(err)
						}
						state[sh] = append(state[sh], tok)
					}
				}
			}
			cut := func(snap *Snapshot, sh int) {
				err := snap.CutShard(sh, func(emit func(*Record) error) error {
					for _, tk := range state[sh] {
						if err := emit(put(sh, tk)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}

			logAll()
			snap, err := l.StartSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 2 {
				t.Fatalf("segments inside the window: %v, want one per generation", segs)
			}
			cut(snap, 0)
			cut(snap, 1)
			logAll()
			if commit {
				cut(snap, 2)
				cut(snap, 3)
				if err := snap.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				l.Crash()
			}

			got := make([][]uint64, shards)
			r, err := Open(dir, shards, Config{SnapshotEvery: -1}, func(rec *Record) error {
				sh := int(rec.Key.S) - 1
				got[sh] = append(got[sh], rec.Token)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for sh := range state {
				if !slices.Equal(got[sh], state[sh]) {
					t.Errorf("shard %d replayed %v, want %v", sh, got[sh], state[sh])
				}
			}
		})
	}
}

// TestEncodeAllocs gates the one-pass encoder: a record is framed in place
// in its destination, and a WAL append reuses the log's buffer.
func TestEncodeAllocs(t *testing.T) {
	r := &Record{Type: RecPut, Key: symbol.K(7, 1, 2), Payload: make([]byte, 4096), Token: 42}
	buf := make([]byte, 0, 8192)
	if n := testing.AllocsPerRun(100, func() { buf = AppendRecord(buf[:0], r) }); n != 0 {
		t.Errorf("AppendRecord allocates %v times per record, want 0", n)
	}

	l, err := Open(t.TempDir(), 1, Config{Sync: SyncNever, SnapshotEvery: -1}, discard)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := testing.AllocsPerRun(1000, func() { l.Append(0, r) }); n > 1 {
		t.Errorf("Log.Append allocates %v times per record, want at most 1", n)
	}
}

// BenchmarkWALAppend is the append path — encode into the log's buffer — at
// the benchmark's two payload sizes, with a commit wait every 64 records so
// the buffer stays the size a closed loop of 64 callers would make it. Run
// with -benchmem: steady state is 0 allocs/op.
func BenchmarkWALAppend(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			l, err := Open(b.TempDir(), 1, Config{Sync: SyncNever, SnapshotEvery: -1}, discard)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			r := &Record{Type: RecPut, Key: symbol.K(7, 1), Payload: make([]byte, size), Token: 42}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seq := l.Append(0, r)
				if i%64 == 63 || i == b.N-1 {
					if err := l.Commit(0, seq); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
