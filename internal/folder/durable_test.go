package folder

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/symbol"
)

func openStore(t testing.TB, dir string, dcfg durable.Config, opts ...Option) *Store {
	t.Helper()
	s, err := OpenStore(dir, dcfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPut(t testing.TB, s *Store, k symbol.Key, v string) {
	t.Helper()
	if err := s.Put(k, []byte(v)); err != nil {
		t.Fatalf("put %v: %v", k, err)
	}
}

// TestStoreRecoverState: a clean close + reopen reconstructs the directory
// — visible memos (multisets per folder), still-hidden put_delayed values,
// and their release behaviour.
func TestStoreRecoverState(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	jobs := symbol.K(1)
	other := symbol.K(2, 7, 9)
	trig := symbol.K(3)
	dest := symbol.K(4)
	mustPut(t, s, jobs, "a")
	mustPut(t, s, jobs, "b")
	mustPut(t, s, jobs, "b") // duplicates are distinct memos
	mustPut(t, s, other, "x")
	if err := s.PutDelayed(trig, dest, []byte("hidden")); err != nil {
		t.Fatal(err)
	}
	// A take must recover as removed.
	if v, ok, _ := s.GetSkip(jobs); !ok {
		t.Fatal("get_skip found nothing")
	} else if string(v) != "a" && string(v) != "b" {
		t.Fatalf("get_skip: %q", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, durable.Config{})
	defer r.Close()
	if got, want := r.MemoCount(), 3; got != want {
		t.Fatalf("recovered MemoCount = %d, want %d", got, want)
	}
	if got := r.DelayedCount(); got != 1 {
		t.Fatalf("recovered DelayedCount = %d, want 1", got)
	}
	if got := r.FolderCount(); got != 3 {
		t.Fatalf("recovered FolderCount = %d, want 3", got)
	}
	if v, ok, _ := r.GetSkip(other); !ok || string(v) != "x" {
		t.Fatalf("recovered other folder: %q %v", v, ok)
	}
	// The recovered hidden value must still release on a trigger put.
	mustPut(t, r, trig, "go")
	if v, ok, _ := r.GetSkip(dest); !ok || string(v) != "hidden" {
		t.Fatalf("recovered delayed value: %q %v", v, ok)
	}
}

// TestStoreRecoverAfterCrash: every acknowledged operation survives a hard
// crash (no flush); the store reopens from exactly the committed state.
func TestStoreRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	k := symbol.K(5)
	for i := 0; i < 10; i++ {
		mustPut(t, s, k, fmt.Sprintf("memo-%d", i))
	}
	if _, ok, _ := s.GetSkip(k); !ok {
		t.Fatal("take failed")
	}
	s.Crash()

	r := openStore(t, dir, durable.Config{})
	defer r.Close()
	if got := r.MemoCount(); got != 9 {
		t.Fatalf("recovered %d memos after crash, want 9", got)
	}
	// The store keeps full multiset semantics: draining yields 9 distinct
	// payloads out of the 10 put minus the 1 taken.
	seen := map[string]bool{}
	for {
		v, ok, _ := r.GetSkip(k)
		if !ok {
			break
		}
		if seen[string(v)] {
			t.Fatalf("duplicate memo %q after recovery", v)
		}
		seen[string(v)] = true
	}
	if len(seen) != 9 {
		t.Fatalf("drained %d memos, want 9", len(seen))
	}
}

// TestSnapshotTruncateRecover: with a tiny snapshot threshold the log
// compacts in the background — old generations disappear — and a crash
// after heavy churn still recovers the exact surviving state.
func TestSnapshotTruncateRecover(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{SnapshotEvery: 16}, WithShards(4))
	k := symbol.K(1)
	keep := symbol.K(2)
	mustPut(t, s, keep, "keeper")
	for i := 0; i < 200; i++ {
		mustPut(t, s, k, "churn")
		if _, ok, _ := s.GetSkip(k); !ok {
			t.Fatal("churn take failed")
		}
	}
	// Wait for a background snapshot to land (generation advances).
	deadline := time.Now().Add(10 * time.Second)
	for s.Log().Gen() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitNotSnapshotting(t, s)
	s.Crash()

	// The directory must hold a snapshot and only recent generations.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var haveSnap bool
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "snap-") && !strings.HasSuffix(e.Name(), ".tmp") {
			haveSnap = true
		}
	}
	if !haveSnap {
		t.Fatalf("no snapshot file in %v", names(ents))
	}

	r := openStore(t, dir, durable.Config{SnapshotEvery: 16}, WithShards(4))
	defer r.Close()
	if got := r.MemoCount(); got != 1 {
		t.Fatalf("recovered %d memos, want 1", got)
	}
	if v, ok, _ := r.GetSkip(keep); !ok || string(v) != "keeper" {
		t.Fatalf("keeper: %q %v", v, ok)
	}
}

// waitNotSnapshotting lets an in-flight background snapshot finish so Crash
// cannot race its file operations.
func waitNotSnapshotting(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.snapshotting.Load() {
		if time.Now().After(deadline) {
			t.Fatal("snapshot never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

func names(ents []os.DirEntry) []string {
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestShardCountChangeAcrossReopen: recovery is shard-count independent —
// a store written with 8 stripes reopens correctly with 2, and vice versa.
func TestShardCountChangeAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{}, WithShards(8))
	for i := 0; i < 32; i++ {
		mustPut(t, s, symbol.K(symbol.Symbol(i+1), uint32(i)), fmt.Sprintf("v%d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, durable.Config{}, WithShards(2))
	if got := r.MemoCount(); got != 32 {
		t.Fatalf("recovered %d memos with fewer shards, want 32", got)
	}
	for i := 0; i < 16; i++ { // churn so both shard mappings are in the log
		if _, ok, _ := r.GetSkip(symbol.K(symbol.Symbol(i+1), uint32(i))); !ok {
			t.Fatalf("take %d failed", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openStore(t, dir, durable.Config{}, WithShards(8))
	defer r2.Close()
	if got := r2.MemoCount(); got != 16 {
		t.Fatalf("recovered %d memos after regrow, want 16", got)
	}
}

// TestTokenDedup: the at-most-once token table — in memory, across a clean
// reopen, and across a crash.
func TestTokenDedup(t *testing.T) {
	t.Run("memory-only", func(t *testing.T) {
		s := NewStore()
		k := symbol.K(1)
		if err := s.PutToken(k, []byte("v"), 42); err != nil {
			t.Fatal(err)
		}
		if err := s.PutToken(k, []byte("v"), 42); err != nil {
			t.Fatal(err)
		}
		if got := s.MemoCount(); got != 1 {
			t.Fatalf("MemoCount = %d after duplicate tokened put, want 1", got)
		}
		if st := s.Stats(); st.DupPuts != 1 || st.Puts != 1 {
			t.Fatalf("stats: %+v", st)
		}
	})
	t.Run("across-crash", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, durable.Config{})
		k := symbol.K(1)
		if err := s.PutToken(k, []byte("v"), 99); err != nil {
			t.Fatal(err)
		}
		s.Crash()
		r := openStore(t, dir, durable.Config{})
		defer r.Close()
		// The retry of a maybe-delivered put arrives after the crash: the
		// recovered token table must swallow it.
		if err := r.PutToken(k, []byte("v"), 99); err != nil {
			t.Fatal(err)
		}
		if got := r.MemoCount(); got != 1 {
			t.Fatalf("MemoCount = %d after post-crash retry, want 1", got)
		}
		if st := r.Stats(); st.DupPuts != 1 {
			t.Fatalf("stats: %+v", st)
		}
	})
	t.Run("delayed", func(t *testing.T) {
		s := NewStore()
		if err := s.PutDelayedToken(symbol.K(1), symbol.K(2), []byte("h"), 7); err != nil {
			t.Fatal(err)
		}
		if err := s.PutDelayedToken(symbol.K(1), symbol.K(2), []byte("h"), 7); err != nil {
			t.Fatal(err)
		}
		if got := s.DelayedCount(); got != 1 {
			t.Fatalf("DelayedCount = %d, want 1", got)
		}
	})
}

// TestTokenDedupSurvivesSnapshot: tokens carry across snapshot truncation.
func TestTokenDedupSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{SnapshotEvery: 8}, WithShards(2))
	k := symbol.K(1)
	if err := s.PutToken(k, []byte("v"), 1234); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, s, k, "churn")
		s.GetSkip(k)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Log().Gen() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitNotSnapshotting(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, durable.Config{SnapshotEvery: 8}, WithShards(2))
	defer r.Close()
	if err := r.PutToken(k, []byte("v"), 1234); err != nil {
		t.Fatal(err)
	}
	if got := r.MemoCount(); got != 1 {
		t.Fatalf("MemoCount = %d (token lost across snapshot?)", got)
	}
}

// TestTokenEviction: the table is bounded FIFO.
func TestTokenEviction(t *testing.T) {
	s := NewStore()
	s.tokens.cap = 4
	k := symbol.K(1)
	for tok := uint64(1); tok <= 6; tok++ {
		if err := s.PutToken(k, []byte("v"), tok); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Tokens(); got != 4 {
		t.Fatalf("Tokens = %d, want 4", got)
	}
	// Oldest evicted: token 1 no longer dedups; newest still does.
	if err := s.PutToken(k, []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutToken(k, []byte("v"), 6); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != 7 || st.DupPuts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRecoveryBlockedGetWakes: a Get parked on a recovered-empty folder
// wakes when a new put lands (waiters are rebuilt state, not recovered
// state — this guards the replay path leaving folds consistent).
func TestRecoveryBlockedGetWakes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	mustPut(t, s, symbol.K(1), "x")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, durable.Config{})
	defer r.Close()
	got := make(chan []byte, 1)
	go func() {
		v, err := r.Get(symbol.K(2), nil)
		if err == nil {
			got <- v
		}
	}()
	time.Sleep(10 * time.Millisecond)
	mustPut(t, r, symbol.K(2), "wake")
	select {
	case v := <-got:
		if string(v) != "wake" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recovered store never woke the getter")
	}
}

// BenchmarkWALGroupCommit quantifies the durability tax and how group
// commit amortizes it: puts against a memory-only store and a
// group-committed WAL (SyncBatch), from 1, 16 and 64 putters spread over
// 256 folders — so over every shard, which share the store's one log. The
// batch column's fsync covers every record that accumulated during the
// previous sync cycle; recs/commit is the mean of durable_commit_batch over
// the run. Recorded in DESIGN.md §7.
func BenchmarkWALGroupCommit(b *testing.B) {
	commitBatch := func() (count, sum int64) {
		var buf bytes.Buffer
		if err := obs.Default.WriteProm(&buf); err != nil {
			b.Fatal(err)
		}
		samples, err := obs.ParseText(&buf)
		if err != nil {
			b.Fatal(err)
		}
		return int64(obs.Sum(samples, "durable_commit_batch_count")), int64(obs.Sum(samples, "durable_commit_batch_sum"))
	}
	keys := make([]symbol.Key, 256)
	for i := range keys {
		keys[i] = symbol.K(symbol.Symbol(i + 1))
	}
	for _, mode := range []struct {
		name string
		open func(b *testing.B) *Store
	}{
		{"off", func(b *testing.B) *Store { return NewStore() }},
		{"batch", func(b *testing.B) *Store {
			return openStore(b, b.TempDir(), durable.Config{Sync: durable.SyncBatch, SnapshotEvery: -1})
		}},
	} {
		for _, putters := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/putters=%d", mode.name, putters), func(b *testing.B) {
				s := mode.open(b)
				defer s.Close()
				payload := []byte("sixteen-byte-pay")
				b.SetBytes(int64(len(payload)))
				n0, sum0 := commitBatch()
				b.ResetTimer()
				var wg sync.WaitGroup
				for p := 0; p < putters; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for i := p; i < b.N; i += putters {
							if err := s.Put(keys[i%len(keys)], payload); err != nil {
								b.Error(err)
								return
							}
						}
					}(p)
				}
				wg.Wait()
				b.StopTimer()
				if n, sum := commitBatch(); n > n0 {
					b.ReportMetric(float64(sum-sum0)/float64(n-n0), "recs/commit")
				}
			})
		}
	}
}

// TestReleaseRedeliveredAfterCrashExactlyOnce guards the release protocol:
// a hidden value whose delivery was handed out but never confirmed
// (done never called — the crash window between the trigger put and
// the re-deposit becoming safe) must survive recovery and be re-released
// by the next trigger — carrying the SAME release token, so the
// destination deduplicates if the first delivery actually landed.
func TestReleaseRedeliveredAfterCrashExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	type delivery struct {
		dest  string
		token uint64
	}
	var mu sync.Mutex
	var deliveries []delivery
	hook := func(confirm bool) Option {
		return WithForward(func(dest symbol.Key, payload []byte, relToken uint64, done func(bool)) {
			mu.Lock()
			deliveries = append(deliveries, delivery{dest.Canon(), relToken})
			mu.Unlock()
			if confirm {
				done(true)
			}
		})
	}

	trig, dest := symbol.K(1), symbol.K(2)
	s := openStore(t, dir, durable.Config{}, hook(false)) // delivery never confirmed
	if err := s.PutDelayed(trig, dest, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, trig, "go") // releases; forward hook swallows, no confirm
	s.Crash()

	mu.Lock()
	if len(deliveries) != 1 {
		t.Fatalf("deliveries before crash: %v", deliveries)
	}
	first := deliveries[0]
	mu.Unlock()

	r := openStore(t, dir, durable.Config{}, hook(true))
	if got := r.DelayedCount(); got != 1 {
		t.Fatalf("unconfirmed release lost across crash: DelayedCount = %d, want 1", got)
	}
	mustPut(t, r, trig, "go-again") // re-releases the recovered entry
	mu.Lock()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries after recovery: %v", deliveries)
	}
	second := deliveries[1]
	mu.Unlock()
	if second.token != first.token || second.token == 0 {
		t.Fatalf("re-release token %d != original %d: destination cannot deduplicate", second.token, first.token)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A CONFIRMED release, by contrast, must not resurface.
	r2 := openStore(t, dir, durable.Config{}, hook(true))
	defer r2.Close()
	if got := r2.DelayedCount(); got != 0 {
		t.Fatalf("confirmed release resurfaced: DelayedCount = %d, want 0", got)
	}
}

// TestReleaseTokenDedupAtDestination: the same release delivered twice (the
// crash-retry path) lands once, because the re-deposit carries the release
// token as its dedup token. Exercised through a real local delivery.
func TestReleaseTokenDedupAtDestination(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	trig, dest := symbol.K(1), symbol.K(2)
	if err := s.PutDelayed(trig, dest, []byte("once")); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, trig, "go")
	if got := s.MemoCount(); got != 2 { // trigger memo + released value
		t.Fatalf("MemoCount = %d, want 2", got)
	}
	if got := s.Stats().DupPuts; got != 0 {
		t.Fatalf("DupPuts = %d before any retry", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGetSkipSurfacesDeadLog: a durable store whose log has died must
// report the failure from GetSkip — not a forever-empty folder — and roll
// the take back.
func TestGetSkipSurfacesDeadLog(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	k := symbol.K(1)
	mustPut(t, s, k, "v")
	s.Crash()
	if _, ok, err := s.GetSkip(k); ok || err == nil {
		t.Fatalf("GetSkip on dead log: ok=%v err=%v, want rolled-back take with an error", ok, err)
	}
	if got := s.MemoCount(); got != 1 {
		t.Fatalf("take not rolled back: MemoCount = %d", got)
	}
	if _, _, _, err := s.AltSkip([]symbol.Key{k}); err == nil {
		t.Fatal("AltSkip on dead log returned no error")
	}
}

// TestCloseJoinsBackgroundSnapshot: Close must not return while the
// background snapshot goroutine is still writing into the data directory.
// Replay re-arms the snapshot counter, so reopening a log with more
// recovered records than SnapshotEvery means the first take's commit fires
// a cycle moments before Close — the shutdown path used to race it
// (observed as TempDir cleanup failures in TestSnapshotTruncateRecover).
func TestCloseJoinsBackgroundSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{SnapshotEvery: 16}, WithShards(2))
	keep := symbol.K(2)
	mustPut(t, s, keep, "keeper")
	k := symbol.K(1)
	for i := 0; i < 64; i++ {
		mustPut(t, s, k, "churn")
		if _, ok, err := s.GetSkip(k); err != nil || !ok {
			t.Fatalf("churn take: ok=%v err=%v", ok, err)
		}
	}
	waitNotSnapshotting(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, durable.Config{SnapshotEvery: 16}, WithShards(2))
	if _, ok, err := r.GetSkip(keep); err != nil || !ok {
		t.Fatalf("keeper take: ok=%v err=%v", ok, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.snapshotting.Load() {
		t.Fatal("Close returned with a snapshot cycle still in flight")
	}
}
