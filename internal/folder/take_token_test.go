package folder

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// TestGetTokenDedup: a retried tokened Get is answered from the
// consumed-take cache — same payload, no second memo consumed.
func TestGetTokenDedup(t *testing.T) {
	s := NewStore()
	k := symbol.K(1)
	mustPut(t, s, k, "p0")
	mustPut(t, s, k, "p1")

	const tok = 42
	first, err := s.GetToken(k, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	retry, err := s.GetToken(k, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(retry) != string(first) {
		t.Fatalf("retry payload %q, want the original's %q", retry, first)
	}
	if got := s.occupancy(nil).memos; got != 1 {
		t.Fatalf("memos = %d, want 1 (retry consumed a second memo)", got)
	}
	if takes, dups := s.takes.Load(), s.dupTakes.Load(); takes != 1 || dups != 1 {
		t.Fatalf("%d takes, %d dedups, want 1 and 1", takes, dups)
	}
	// The cached copy is private: scribbling on a returned payload must not
	// poison later retries.
	for i := range retry {
		retry[i] = 'X'
	}
	again, err := s.GetToken(k, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(first) {
		t.Fatalf("cache poisoned: %q, want %q", again, first)
	}
}

// TestGetSkipTokenCachesEmpty: a tokened skip that observed an empty folder
// repeats that answer on retry, even if a memo has arrived in between —
// exactly-once means the retry reports what its original saw.
func TestGetSkipTokenCachesEmpty(t *testing.T) {
	s := NewStore()
	k := symbol.K(2)
	const tok = 43
	if _, ok, err := s.GetSkipToken(k, tok); err != nil || ok {
		t.Fatalf("skip on empty folder: ok=%v err=%v", ok, err)
	}
	mustPut(t, s, k, "late")
	if _, ok, err := s.GetSkipToken(k, tok); err != nil || ok {
		t.Fatalf("retried skip resampled the folder: ok=%v err=%v", ok, err)
	}
	// A fresh token takes normally.
	if v, ok, err := s.GetSkipToken(k, tok+1); err != nil || !ok || string(v) != "late" {
		t.Fatalf("fresh-token skip: %q ok=%v err=%v", v, ok, err)
	}
}

// TestAltTakeTokenDedup: the cached result remembers which key satisfied
// the original alt_take, so the retry returns the same (key, payload) pair.
func TestAltTakeTokenDedup(t *testing.T) {
	s := NewStore(withShards(4))
	keys := []symbol.Key{symbol.K(3), symbol.K(4, 7), symbol.K(5)}
	mustPut(t, s, keys[1], "only")

	const tok = 44
	k1, v1, err := s.AltTakeToken(keys, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, keys[0], "decoy")
	k2, v2, err := s.AltTakeToken(keys, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !k2.Equal(k1) || string(v2) != string(v1) {
		t.Fatalf("retry = (%v, %q), want the original's (%v, %q)", k2, v2, k1, v1)
	}
	if got := s.occupancy(nil).memos; got != 1 {
		t.Fatalf("memos = %d, want 1", got)
	}
}

// TestGetTokenConcurrentRetry is the race the claim step exists for: an
// original and its retry executing simultaneously against a folder holding
// one memo must both report that one memo — the loser attaches to the
// winner's claim instead of blocking for a second memo forever (or, worse,
// consuming one).
func TestGetTokenConcurrentRetry(t *testing.T) {
	s := NewStore()
	k := symbol.K(6)
	const tok = 45
	results := make(chan string, 2)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.GetToken(k, tok, nil)
			if err != nil {
				errs <- err
				return
			}
			results <- string(v)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let both attempts block
	mustPut(t, s, k, "single")
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := 0
	for v := range results {
		n++
		if v != "single" {
			t.Fatalf("got %q, want %q", v, "single")
		}
	}
	if n != 2 {
		t.Fatalf("%d callers returned, want both", n)
	}
	if got := s.occupancy(nil).memos; got != 0 {
		t.Fatalf("memos = %d, want 0", got)
	}
	if takes, dups := s.takes.Load(), s.dupTakes.Load(); takes != 1 || dups != 1 {
		t.Fatalf("%d takes, %d dedups, want exactly one take + one dedup", takes, dups)
	}
}

// TestGetTokenAbandonedClaimRetries: a canceled owner abandons its claim,
// and a later retry with the same token re-executes the take instead of
// waiting on a corpse.
func TestGetTokenAbandonedClaimRetries(t *testing.T) {
	s := NewStore()
	k := symbol.K(7)
	const tok = 46
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.GetToken(k, tok, cancel)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	if err := <-done; err != wire.ErrCanceled {
		t.Fatalf("canceled owner: %v, want wire.ErrCanceled", err)
	}
	mustPut(t, s, k, "after")
	v, err := s.GetToken(k, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "after" {
		t.Fatalf("retry after abandon: %q", v)
	}
}

// TestTakeTokenCrashRecovery: the consumed-take cache survives restart via
// the tokened RecTake — a post-crash retry of a maybe-acknowledged take
// receives the original's payload and consumes nothing.
func TestTakeTokenCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	k := symbol.K(8)
	mustPut(t, s, k, "aa")
	mustPut(t, s, k, "bb")
	const tok = 47
	taken, ok, err := s.GetSkipToken(k, tok)
	if err != nil || !ok {
		t.Fatalf("tokened skip: ok=%v err=%v", ok, err)
	}
	s.Crash() // the take was acknowledged, so it is committed

	r := openStore(t, dir, durable.Config{})
	defer r.Close()
	if got := r.occupancy(nil).memos; got != 1 {
		t.Fatalf("recovered memos = %d, want 1", got)
	}
	v, ok, err := r.GetSkipToken(k, tok)
	if err != nil || !ok {
		t.Fatalf("post-crash retry: ok=%v err=%v", ok, err)
	}
	if string(v) != string(taken) {
		t.Fatalf("post-crash retry payload %q, want %q", v, taken)
	}
	if got := r.occupancy(nil).memos; got != 1 {
		t.Fatalf("post-crash retry consumed a memo: memos = %d, want 1", got)
	}
}

// TestTakeTokenSurvivesSnapshot: after a snapshot truncates the tokened
// RecTake away, the RecTakeCache record it was compacted into still answers
// a retry across a reopen.
func TestTakeTokenSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, durable.Config{})
	k := symbol.K(9)
	mustPut(t, s, k, "keep")
	mustPut(t, s, k, "take-me")
	const tok = 48
	taken, ok, err := s.GetSkipToken(k, tok)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Also park an observed-empty miss in the cache: snapshots must carry
	// both result shapes.
	const emptyTok = 49
	if _, ok, err := s.GetSkipToken(symbol.K(10), emptyTok); err != nil || ok {
		t.Fatalf("skip on empty: ok=%v err=%v", ok, err)
	}
	if err := s.snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, durable.Config{})
	defer r.Close()
	v, ok, err := r.GetSkipToken(k, tok)
	if err != nil || !ok {
		t.Fatalf("post-snapshot retry: ok=%v err=%v", ok, err)
	}
	if string(v) != string(taken) {
		t.Fatalf("post-snapshot retry payload %q, want %q", v, taken)
	}
	if _, ok, err := r.GetSkipToken(symbol.K(10), emptyTok); err != nil || ok {
		t.Fatalf("post-snapshot empty-miss retry: ok=%v err=%v", ok, err)
	}
	if got := r.occupancy(nil).memos; got != 1 {
		t.Fatalf("memos = %d, want 1", got)
	}
}

// liveTokens is the dedup table's live fact count (folder_tokens), read
// under its lock.
func liveTokens(s *Store) int {
	s.tokens.mu.Lock()
	defer s.tokens.mu.Unlock()
	return len(s.tokens.index)
}

// waitParked returns once a read is parked in the store.
func waitParked(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.occupancy(nil).waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read ever parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestParkedClaimOutlivesNewerTokens: a get parked while more than a table's
// worth of newer tokens pass — an idle worker on a busy job jar — must still
// have its result cached when the take finally happens. An in-flight claim
// is not evictable by age; were it, the retry below would consume "second".
func TestParkedClaimOutlivesNewerTokens(t *testing.T) {
	s := NewStore()
	s.tokens.cap = 4
	k, busy := symbol.K(1), symbol.K(2)
	const tok = 1000
	got := make(chan string, 1)
	go func() {
		v, err := s.GetToken(k, tok, nil)
		if err != nil {
			t.Error(err)
		}
		got <- string(v)
	}()
	waitParked(t, s)
	for i := uint64(1); i <= 5; i++ { // cap + 1 newer tokens pass
		if err := s.PutToken(busy, []byte("x"), i); err != nil {
			t.Fatal(err)
		}
	}
	s.tokens.mu.Lock()
	claims, tokens, evictions := len(s.tokens.claims), len(s.tokens.index), s.tokens.evictions
	s.tokens.mu.Unlock()
	if claims != 1 || tokens != 4 || evictions != 1 {
		t.Fatalf("table with one parked claim and 5 puts through cap 4: %d claims, %d tokens, %d evictions", claims, tokens, evictions)
	}
	mustPut(t, s, k, "first")
	if v := <-got; v != "first" {
		t.Fatalf("parked get returned %q", v)
	}
	// The response is lost; the client retries under the same token.
	mustPut(t, s, k, "second")
	retry, err := s.GetToken(k, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(retry) != "first" {
		t.Fatalf("retry under the parked get's token got %q, want its original's %q: it consumed a second memo", retry, "first")
	}
	if takes, dups, memos := s.takes.Load(), s.dupTakes.Load(), s.occupancy(nil).memos; takes != 1 || dups != 1 || memos != 6 {
		t.Fatalf("%d takes, %d dedups, %d memos; want one take, one dedup, 6 memos left", takes, dups, memos)
	}
}

// TestReclaimedTokenKeepsItsWindow: a token abandoned by a canceled get and
// claimed again by its retry is one fact with one FIFO position — the retry's.
// A table that kept the abandoned position too would evict the live result
// when the stale position came up: here after one newer token instead of four.
func TestReclaimedTokenKeepsItsWindow(t *testing.T) {
	s := NewStore()
	s.tokens.cap = 4
	k, busy := symbol.K(1), symbol.K(2)
	const tok = 1000
	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.GetToken(k, tok, cancel)
		done <- err
	}()
	waitParked(t, s)
	close(cancel)
	if err := <-done; err != wire.ErrCanceled {
		t.Fatalf("canceled get: %v", err)
	}
	for i := uint64(1); i <= 3; i++ { // three older facts
		if err := s.PutToken(busy, []byte("x"), i); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(t, s, k, "first")
	if v, err := s.GetToken(k, tok, nil); err != nil || string(v) != "first" {
		t.Fatalf("retry after cancel: %q, %v", v, err)
	}
	// One newer token: the table is over its cap and forgets its oldest fact,
	// which is put token 1 — not the take, which is the newest but one.
	if err := s.PutToken(busy, []byte("x"), 4); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, k, "second")
	retry, err := s.GetToken(k, tok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(retry) != "first" {
		t.Fatalf("retry one token later got %q, want the cached %q: the take's result was evicted out of turn", retry, "first")
	}
	if err := s.PutToken(busy, []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if dups := s.dupPuts.Load(); dups != 0 {
		t.Fatalf("put token 1 should have been the one evicted: %d dedups", dups)
	}
}

// TestTakeTokenSpaceViolationsRefused: a take whose token a deposit used, and
// a blocking take that meets the empty answer a skip cached under its token,
// are token-space violations: refused with an error, consuming nothing,
// rather than answered with a guess.
func TestTakeTokenSpaceViolationsRefused(t *testing.T) {
	s := NewStore()
	k, empty := symbol.K(1), symbol.K(2)
	if err := s.PutToken(k, []byte("v"), 9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetToken(k, 9, nil); err == nil || !strings.Contains(err.Error(), "already applied by a deposit") {
		t.Fatalf("take under a put's token: %v, want it refused", err)
	}
	if _, ok, err := s.GetSkipToken(empty, 10); err != nil || ok {
		t.Fatalf("skip on an empty folder: ok=%v err=%v", ok, err)
	}
	mustPut(t, s, empty, "late")
	if _, err := s.GetToken(empty, 10, nil); err == nil || !strings.Contains(err.Error(), "cached an empty result") {
		t.Fatalf("blocking take under a skip's cached miss: %v, want it refused", err)
	}
	if memos, takes := s.occupancy(nil).memos, s.takes.Load(); memos != 2 || takes != 0 {
		t.Fatalf("%d memos left and %d takes, want 2 and 0: a refused take consumed", memos, takes)
	}
}
