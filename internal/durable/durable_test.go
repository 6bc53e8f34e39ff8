package durable

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/symbol"
)

func rec(t RecType, key symbol.Key, payload string, tok uint64) *Record {
	return &Record{Type: t, Key: key, Payload: []byte(payload), Token: tok}
}

// encodeBody is a record's body alone: what DecodeRecord takes, and what the
// one encoder writes after the frame header.
func encodeBody(r *Record) []byte { return AppendRecord(nil, r)[frameHeader:] }

func TestRecordRoundTrip(t *testing.T) {
	cases := []*Record{
		rec(RecPut, symbol.K(7), "hello", 0),
		rec(RecPut, symbol.K(7, 1, 2, 3), "", 0xDEADBEEF),
		{Type: RecPutDelayed, Key: symbol.K(9, 4), Dest: symbol.K(11), Payload: []byte("hidden"), Token: 5},
		{Type: RecPutDelayed, Key: symbol.K(1), Dest: symbol.K(2, 0, 0, 9)},
		rec(RecTake, symbol.K(3, 1000000), "taken-payload", 0),
		rec(RecTake, symbol.K(3, 2), "tokened-take", 0xABCD),
		{Type: RecToken, Token: ^uint64(0)},
		{Type: RecTakeCache, Token: 9, Key: symbol.K(12, 3), Payload: []byte("cached")},
		{Type: RecTakeCache, Token: 10, Empty: true},
	}
	for _, want := range cases {
		got, err := DecodeRecord(encodeBody(want))
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		// nil and empty slices are equivalent on the wire.
		if want.Payload == nil {
			want.Payload = got.Payload
		}
		if got.Payload == nil {
			got.Payload = want.Payload
		}
		if got.Type != want.Type || !got.Key.Equal(want.Key) || !got.Dest.Equal(want.Dest) ||
			string(got.Payload) != string(want.Payload) || got.Token != want.Token ||
			got.Empty != want.Empty {
			t.Errorf("round trip %+v -> %+v", want, got)
		}
	}
}

// TestNamedKeyRecordRoundTrip: a named symbol's 64-bit hash survives the
// log, through AppendRecord's framing and DecodeRecord.
func TestNamedKeyRecordRoundTrip(t *testing.T) {
	want := &Record{Type: RecPutDelayed, Key: symbol.K(symbol.Named("jobs"), 4, 1<<31),
		Dest: symbol.K(symbol.Named("results")), Payload: []byte("hidden"), Token: 7}
	got, err := DecodeRecord(AppendRecord(nil, want)[frameHeader:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Key.Equal(want.Key) || !got.Dest.Equal(want.Dest) || string(got.Payload) != "hidden" || got.Token != 7 {
		t.Fatalf("round trip %+v -> %+v", want, got)
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	good := encodeBody(rec(RecPut, symbol.K(7, 1), "x", 3))
	if _, err := DecodeRecord(append(good, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := DecodeRecord([]byte{99}); err == nil {
		t.Error("unknown type accepted")
	}
	for i := 1; i < len(good); i++ {
		if _, err := DecodeRecord(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
}

// collect opens the log in dir and returns the replayed records.
func collect(t *testing.T, dir string, shards int, cfg Config) (*Log, []*Record) {
	t.Helper()
	var got []*Record
	l, err := Open(dir, shards, cfg, func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, got
}

func TestLogAppendCommitReplay(t *testing.T) {
	dir := t.TempDir()
	l, got := collect(t, dir, 4, Config{})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	var want []*Record
	for i := 0; i < 40; i++ {
		r := rec(RecPut, symbol.K(symbol.Symbol(i%4+1), uint32(i)), "payload", uint64(i+1))
		want = append(want, r)
		seq := l.Append(i%4, r)
		if err := l.Commit(i%4, seq); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := collect(t, dir, 4, Config{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	// Per-shard order must be preserved; cross-shard order is free. Group
	// by shard (token encodes the append index here).
	perShard := map[symbol.Symbol][]uint64{}
	for _, r := range got {
		perShard[r.Key.S] = append(perShard[r.Key.S], r.Token)
	}
	for s, toks := range perShard {
		for i := 1; i < len(toks); i++ {
			if toks[i] <= toks[i-1] {
				t.Errorf("shard-symbol %d replay out of order: %v", s, toks)
			}
		}
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, 2, Config{})
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sh := w % 2
				seq := l.Append(sh, rec(RecPut, symbol.K(symbol.Symbol(w+1), uint32(i)), "v", 0))
				if err := l.Commit(sh, seq); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, dir, 2, Config{})
	defer l2.Close()
	if len(got) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(got), writers*each)
	}
}

// TestTornTailNeverMisapplied truncates a stripe at every possible byte
// length: recovery must always yield a strict prefix of the acknowledged
// records — never an error, never a reordered or corrupted record.
func TestTornTailNeverMisapplied(t *testing.T) {
	master := t.TempDir()
	l, _ := collect(t, master, 1, Config{})
	const n = 8
	for i := 0; i < n; i++ {
		seq := l.Append(0, rec(RecPut, symbol.K(1, uint32(i)), "payload", uint64(i+1)))
		if err := l.Commit(0, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	stripes := stripeFiles(master, mustOneGen(t, master))
	if len(stripes) != 1 {
		t.Fatalf("stripes: %v", stripes)
	}
	whole, err := os.ReadFile(stripes[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(stripes[0])), whole[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		var got []*Record
		l, err := Open(dir, 1, Config{}, func(r *Record) error {
			cp := *r
			got = append(got, &cp)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		l.Close()
		for i, r := range got {
			if r.Token != uint64(i+1) || string(r.Payload) != "payload" {
				t.Fatalf("cut %d: record %d mis-applied: %+v", cut, i, r)
			}
		}
		if len(got) > n {
			t.Fatalf("cut %d: %d records from %d acknowledged", cut, len(got), n)
		}
	}
}

// TestCorruptionStopsReplay flips one byte mid-file: replay must stop at
// the flip and never surface the corrupted or any later record.
func TestCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, 1, Config{})
	for i := 0; i < 6; i++ {
		seq := l.Append(0, rec(RecPut, symbol.K(1, uint32(i)), "payload-payload", uint64(i+1)))
		if err := l.Commit(0, seq); err != nil {
			t.Fatal(err)
		}
	}
	gen := mustOneGen(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := stripeFiles(dir, gen)[0]
	buf, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(name, buf, 0o666); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, dir, 1, Config{})
	l2.Close()
	if len(got) >= 6 {
		t.Fatalf("corruption not detected: %d records replayed", len(got))
	}
	for i, r := range got {
		if r.Token != uint64(i+1) {
			t.Fatalf("record %d mis-applied after corruption: %+v", i, r)
		}
	}
}

// mustOneGen returns the single wal generation present in dir.
func mustOneGen(t *testing.T, dir string) uint64 {
	t.Helper()
	_, gens, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("generations: %v", gens)
	}
	return gens[0]
}

// TestCrashAbandonsUnsynced: records appended but not yet committed when
// Crash hits must fail their commit and not resurface on recovery.
func TestCrashAbandonsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, 1, Config{})
	// Holding the writer's io mutex holds the syncer back, so the append
	// stays buffered and uncommitted when Crash hits. Crash fails the
	// commit at once, then waits for io, as for a write under way.
	l.w.io.Lock()
	seq := l.Append(0, rec(RecPut, symbol.K(1), "doomed", 7))
	errc := make(chan error, 1)
	go func() { errc <- l.Commit(0, seq) }()
	time.Sleep(10 * time.Millisecond)
	crashed := make(chan struct{})
	go func() {
		l.Crash()
		close(crashed)
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("commit after crash: %v, want ErrCrashed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit hung across Crash")
	}
	select {
	case <-crashed:
		l.w.io.Unlock()
		t.Fatal("Crash returned while a write could still be under way")
	case <-time.After(20 * time.Millisecond):
	}
	l.w.io.Unlock()
	<-crashed
	l2, got := collect(t, dir, 1, Config{})
	defer l2.Close()
	if len(got) != 0 {
		t.Fatalf("unacknowledged record resurfaced after crash: %+v", got[0])
	}
}

// TestCrashRightAfterOpenKeepsRecoveredState reopens a log and crashes
// before anything is appended to the new generation: everything recovered
// at open must still be recoverable afterwards. This is the PR 4 follow-up
// fsync gap: Open creates the fresh generation's stripe files and must
// fsync the data directory, or a crash can lose the new segments'
// directory entries while surviving snapshot deletions of the old
// generation leave nothing behind to replay.
func TestCrashRightAfterOpenKeepsRecoveredState(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, 2, Config{})
	for i := 0; i < 6; i++ {
		sh := i % 2
		seq := l.Append(sh, rec(RecPut, symbol.K(symbol.Symbol(sh+1), uint32(i)), "survivor", uint64(i+1)))
		if err := l.Commit(sh, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen — a fresh generation's stripes are created — and assert the
	// directory entries were made durable before Open returned. The fsync
	// itself is observable through the dir-sync counter; losing a directory
	// entry needs a real power cut, which a unit test cannot stage.
	before := mDirSyncs.Load()
	l2, got := collect(t, dir, 2, Config{})
	if len(got) != 6 {
		t.Fatalf("reopen replayed %d records, want 6", len(got))
	}
	if mDirSyncs.Load() == before {
		t.Fatal("Open did not fsync the data directory after creating the new generation's stripes")
	}

	// SIGKILL-equivalent immediately after open: nothing was appended to
	// the new generation, so recovery must still see all six records.
	l2.Crash()
	l3, got := collect(t, dir, 2, Config{})
	defer l3.Close()
	if len(got) != 6 {
		t.Fatalf("crash right after open lost state: %d records recovered, want 6", len(got))
	}
}

// TestDeadLogTouchesNoSegment: a crashed incarnation must leave the data
// directory to the one restarted on it. StartSnapshot on a crashed log fails
// with the crash error and creates no file, and no segment is ever created
// over one that exists — the restarted log's live segment keeps its records.
func TestDeadLogTouchesNoSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, 1, Config{})
	l.Crash()
	listing := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}
	before := listing()
	if snap, err := l.StartSnapshot(); !errors.Is(err, ErrCrashed) {
		if err == nil {
			snap.Abort()
		}
		t.Fatalf("StartSnapshot on a crashed log: %v, want ErrCrashed", err)
	}
	if after := listing(); !slices.Equal(before, after) {
		t.Fatalf("StartSnapshot on a crashed log changed the directory: %v -> %v", before, after)
	}

	l2, _ := collect(t, dir, 1, Config{})
	defer l2.Close()
	if err := l2.Commit(0, l2.Append(0, rec(RecPut, symbol.K(1), "live", 1))); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walName(l2.Gen()))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if f, err := createSegment(dir, l2.Gen()); err == nil {
		f.Close()
		t.Fatalf("createSegment reopened the live segment of generation %d", l2.Gen())
	}
	if fi2, err := os.Stat(seg); err != nil || fi2.Size() != fi.Size() {
		t.Fatalf("live segment of %d bytes changed: %v %v", fi.Size(), fi2, err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
		ok   bool
	}{
		{"batch", SyncBatch, true}, {"", SyncBatch, true},
		{"never", SyncNever, true},
		{"always", 0, false}, {"bogus", 0, false},
	} {
		got, err := ParseSyncMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}
