package folder

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/symbol"
)

// storeState is everything recovery must reproduce: each folder's memos as a
// sorted multiset, and every live dedup token with its cached take result.
func storeState(s *Store) (memos map[string][]string, tokens map[uint64]string) {
	memos = map[string][]string{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for canon, f := range sh.folders {
			for _, it := range f.items {
				memos[canon] = append(memos[canon], string(it))
			}
			slices.Sort(memos[canon])
		}
		sh.mu.Unlock()
	}
	tokens = map[uint64]string{}
	s.tokens.mu.Lock()
	for tok, p := range s.tokens.index {
		tokens[tok] = "put"
		if e := s.tokens.ring[p]; e.kind != slotPut {
			tokens[tok] = fmt.Sprintf("take %s %q empty=%v", e.name, e.data, e.kind == slotEmpty)
		}
	}
	s.tokens.mu.Unlock()
	return memos, tokens
}

func requireSameState(t *testing.T, want, got *Store) {
	t.Helper()
	wm, wt := storeState(want)
	gm, gt := storeState(got)
	if len(wm) != len(gm) {
		t.Fatalf("recovered %d folders, want %d", len(gm), len(wm))
	}
	for canon, w := range wm {
		if !slices.Equal(w, gm[canon]) {
			t.Fatalf("folder %s recovered as %d memos, want the %d that were there", canon, len(gm[canon]), len(w))
		}
	}
	if len(wt) != len(gt) {
		t.Fatalf("recovered %d tokens, want %d", len(gt), len(wt))
	}
	for tok, w := range wt {
		if gt[tok] != w {
			t.Fatalf("token %d recovered as %q, want %q", tok, gt[tok], w)
		}
	}
}

// dirBytes sums the data directory: snapshot files and everything else (the
// WAL stripes, plus a snapshot temp file if one is open).
func dirBytes(t testing.TB, dir string) (snap, rest int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "snap-") && !strings.HasSuffix(e.Name(), ".tmp") {
			snap += info.Size()
		} else {
			rest += info.Size()
		}
	}
	return snap, rest
}

// churn runs n tokened put+take rounds of size-byte memos over 8 folders,
// minting tokens from *tok.
func churn(t testing.TB, s *Store, n, size int, tok *uint64) {
	t.Helper()
	payload := make([]byte, size)
	for i := 0; i < n; i++ {
		k := symbol.K(1, uint32(i%8))
		copy(payload, fmt.Sprintf("v%d-%d", *tok, i))
		*tok += 2
		if err := s.PutToken(k, payload, *tok); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.GetSkipToken(k, *tok+1); err != nil || !ok {
			t.Fatalf("round %d take: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestCompactionWriteAmplification drives the size-proportional trigger with
// a full (scaled-down) token table, where every snapshot re-writes the same
// table: snapshot bytes must stay within twice the WAL bytes that paid for
// them, and the directory within three snapshots plus the record floor.
func TestCompactionWriteAmplification(t *testing.T) {
	const floor, size = 64, 256
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{SnapshotEvery: floor, Sync: durable.SyncNever}, withShards(4))
	defer s.Close()
	s.tokens.cap = 512
	// Snapshots run here, on the trigger's say-so, instead of in the
	// background: the sizes can then be read at exact points.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	tok := uint64(100)
	var walTotal, snapTotal, lastSnap int64
	snapshots := 0
	const frame = size + 64 // generous bound on one record's frame
	for round := 0; round < 20*floor; round++ {
		churn(t, s, 1, size, &tok)
		if !s.wal.ShouldSnapshot() {
			continue
		}
		oldSnap, wal := dirBytes(t, dir)
		if err := s.snapshot(); err != nil {
			t.Fatal(err)
		}
		newSnap, _ := dirBytes(t, dir)
		snapshots++
		walTotal += wal
		snapTotal += newSnap
		lastSnap = newSnap
		// Peak footprint is just before the commit deletes the old files.
		if peak, bound := oldSnap+wal+newSnap, 3*max(oldSnap, newSnap)+floor*frame; peak > bound {
			t.Fatalf("snapshot %d: %d bytes on disk at commit (old snapshot %d + log %d + new snapshot %d), bound %d",
				snapshots, peak, oldSnap, wal, newSnap, bound)
		}
		if wal < oldSnap {
			t.Fatalf("snapshot %d cut after %d log bytes, before the log reached the last snapshot's %d", snapshots, wal, oldSnap)
		}
	}
	if snapshots < 3 {
		t.Fatalf("only %d snapshots in %d rounds", snapshots, 20*floor)
	}
	if liveTokens(s) != 512 {
		t.Fatalf("token table holds %d, want it full at 512", liveTokens(s))
	}
	if snapTotal > 2*walTotal+lastSnap {
		t.Fatalf("%d snapshots wrote %d bytes for %d bytes of log: amplification above 2", snapshots, snapTotal, walTotal)
	}
	// The record-count rule alone would have cut one per floor records.
	if old := 20 * floor * 2 / floor; snapshots*2 > old {
		t.Errorf("%d snapshots; a cut every %d records would make %d — the size rule should be far below", snapshots, floor, old)
	}
}

// TestCrashOverLongGeneration: with a snapshot much larger than the floor,
// the log runs long between cuts; a crash at that point, and a crash with a
// half-written snapshot temp file beside it, must both reopen to exactly the
// memos and tokens that were acknowledged.
func TestCrashOverLongGeneration(t *testing.T) {
	const floor = 16
	cfg := durable.Config{SnapshotEvery: floor}
	fill := func(t *testing.T, dir string) (*Store, *uint64) {
		s := openStore(t, dir, cfg, withShards(4))
		tok := uint64(1000)
		for i := 0; i < 1500; i++ { // a backlog that makes the snapshot big
			tok++
			if err := s.PutToken(symbol.K(2, uint32(i%32)), fmt.Appendf(nil, "backlog-%04d-%0200d", i, i), tok); err != nil {
				t.Fatal(err)
			}
		}
		s.snapMu.Lock() // cut one by hand, at a known point
		if err := s.snapshot(); err != nil {
			t.Fatal(err)
		}
		s.snapMu.Unlock()
		return s, &tok
	}

	t.Run("wal far past the floor", func(t *testing.T) {
		dir := t.TempDir()
		s, tok := fill(t, dir)
		gen := s.Log().Gen()
		churn(t, s, 10*floor, 64, tok) // 20× the floor in records, a fraction of the snapshot in bytes
		// Taking the cycle's lock waits out a running cycle.
		s.snapMu.Lock()
		if s.Log().Gen() != gen || s.wal.ShouldSnapshot() {
			t.Fatalf("generation %d -> %d: the log was cut before it outgrew the snapshot", gen, s.Log().Gen())
		}
		s.snapMu.Unlock()
		s.Crash()
		r := openStore(t, dir, cfg, withShards(4))
		defer r.Close()
		requireSameState(t, s, r)
	})

	t.Run("snapshot temp file half written", func(t *testing.T) {
		dir := t.TempDir()
		s, tok := fill(t, dir)
		churn(t, s, 2*floor, 64, tok)
		s.snapMu.Lock()
		snap, err := s.wal.StartSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // cut half the shards, then die
			sh := &s.shards[i]
			sh.mu.Lock()
			err := snap.CutShard(i, func(emit func(*durable.Record) error) error { return dumpShard(sh, emit) })
			sh.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		churn(t, s, floor, 64, tok) // the new generation is live on the cut shards
		// Crash takes the cycle's lock for good, so hand it back first; the
		// half-cut snapshot stays abandoned.
		s.snapMu.Unlock()
		s.Crash()
		if tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*.tmp")); len(tmps) != 1 {
			t.Fatalf("want one abandoned snapshot temp file, have %v", tmps)
		}
		r := openStore(t, dir, cfg, withShards(4))
		defer r.Close()
		requireSameState(t, s, r)
		if tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*.tmp")); len(tmps) != 0 {
			t.Fatalf("reopen left %v behind", tmps)
		}
	})
}

// TestTokensNotedDuringSnapshotSurvive: the token dump is streamed with the
// table unlocked between chunks, so tokened puts proceed while it runs; every
// one acknowledged — before, during or after a dump — must be known after a
// crash and reopen.
func TestTokensNotedDuringSnapshotSurvive(t *testing.T) {
	dir := t.TempDir()
	cfg := durable.Config{SnapshotEvery: -1, Sync: durable.SyncNever}
	s := openStore(t, dir, cfg, withShards(4))
	const preload = 3 * dumpChunk // several chunks per dump
	for tok := uint64(1); tok <= preload; tok++ {
		if err := s.PutToken(symbol.K(1, uint32(tok%16)), []byte("p"), tok); err != nil {
			t.Fatal(err)
		}
	}

	const writers, cycles = 4, 6
	var wg sync.WaitGroup
	var stop atomic.Bool
	var noted atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tok := uint64(1_000_000*(w+1) + i)
				if err := s.PutToken(symbol.K(3, uint32(w)), []byte("c"), tok); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				noted.Add(1)
			}
		}(w)
	}
	for i := 0; i < cycles; i++ {
		if err := s.snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	s.Crash()

	r := openStore(t, dir, cfg, withShards(4))
	defer r.Close()
	requireSameState(t, s, r)
	if want := preload + int(noted.Load()); liveTokens(r) != want || r.occupancy(nil).memos != want {
		t.Fatalf("recovered %d tokens and %d memos, want %d of each (%d noted while %d snapshots ran)",
			liveTokens(r), r.occupancy(nil).memos, want, noted.Load(), cycles)
	}
}

// TestTokenStreamFollowsCompaction: the dump's cursor is an insertion
// number, so eviction and the ring wrapping past the cursor between two
// chunks neither skip a live token nor repeat one. (The name is from when the
// table was a compacted fifo slice; the wrap is what replaced compaction.)
func TestTokenStreamFollowsCompaction(t *testing.T) {
	var tt tokenTable
	tt.cap = 4 * dumpChunk
	next := uint64(1)
	note := func(n int) {
		for i := 0; i < n; i++ {
			tt.note(next)
			next++
		}
	}
	// A table with history: full, and 3000 evictions in, so the next
	// thousand-odd insertions wrap the ring's end while older entries survive.
	note(tt.cap + 3000)
	oldest, newest := next-uint64(tt.cap), next-1 // live when the dump starts
	seen := map[uint64]int{}
	chunks := 0
	err := tt.stream(func(chunk []tokSlot) error {
		for _, d := range chunk {
			seen[d.tok]++
		}
		if chunks++; chunks == 1 {
			before := tt.next / uint64(tt.cap)
			note(1100)
			if tt.next/uint64(tt.cap) == before {
				t.Fatal("the ring did not wrap; the test no longer exercises the cursor")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first chunk was copied before the evictions; after it, exactly the
	// tokens that are still live and were present at the start must follow.
	want := map[uint64]bool{}
	for tok := oldest; tok < oldest+dumpChunk; tok++ {
		want[tok] = true
	}
	for tok := next - uint64(tt.cap); tok <= newest; tok++ {
		want[tok] = true
	}
	for tok := range want {
		if seen[tok] != 1 {
			t.Fatalf("token %d dumped %d times, want once", tok, seen[tok])
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("dumped %d tokens, want %d", len(seen), len(want))
	}
}

// snapshotStore is a store holding memos memos of size bytes in 16 folders
// and a token table full at its (scaled-down) cap, half put tokens and half
// take results — the shape of a daemon's steady state.
func snapshotStore(t testing.TB, memos, size, tokenCap int) *Store {
	t.Helper()
	s := openStore(t, t.TempDir(), durable.Config{SnapshotEvery: -1, Sync: durable.SyncNever}, withShards(4))
	s.tokens.cap = tokenCap
	payload := make([]byte, size)
	for i := 0; i < memos; i++ {
		if err := s.Put(symbol.K(5, uint32(i%16)), payload); err != nil {
			t.Fatal(err)
		}
	}
	tok := uint64(1)
	churn(t, s, tokenCap/2, size, &tok)
	if liveTokens(s) != tokenCap {
		t.Fatalf("token table holds %d, want %d", liveTokens(s), tokenCap)
	}
	return s
}

// TestSnapshotAllocsIndependentOfRecords: a snapshot cycle allocates per
// shard and per folder, never per dumped memo or token.
func TestSnapshotAllocsIndependentOfRecords(t *testing.T) {
	cycle := func(memos, tokenCap int) float64 {
		s := snapshotStore(t, memos, 2048, tokenCap)
		defer s.Close()
		return testing.AllocsPerRun(3, func() {
			if err := s.snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := cycle(1000, 512), cycle(8000, 4096)
	t.Logf("allocations per cycle: %v for 1512 records, %v for 12096", small, large)
	if large > small+8 {
		t.Errorf("a snapshot of 8x the records allocates %v times against %v: something allocates per record", large, small)
	}
}

// BenchmarkSnapshotCycle times whole snapshot cycles of a steady-state store
// (20 000-memo backlog, full scaled-down token table) and reports the cost
// per dumped record.
func BenchmarkSnapshotCycle(b *testing.B) {
	const memos, tokenCap = 20000, 8192
	s := snapshotStore(b, memos, 64, tokenCap)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	records := float64(b.N) * (memos + tokenCap)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() { _ = s.snapshot() }))/(memos+tokenCap), "allocs/record")
}
