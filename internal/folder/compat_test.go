package folder

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/symbol"
)

// testdata/parent-datadir is a data directory written by the commit before
// the token table became a ring (PR 21's tree): a snapshot and a log tail
// holding put tokens, take results (a get_skip's and an alt_take's), a cached
// empty skip and a hidden put_delayed value. compatTrace is the sequence of
// operations that wrote it, run there against that commit's store.

var compatCfg = durable.Config{SnapshotEvery: -1, Sync: durable.SyncNever}

func compatTrace(t *testing.T, s *Store) {
	t.Helper()
	jobs, other, trig, dest, late := symbol.K(1), symbol.K(2, 7, 9), symbol.K(3), symbol.K(4, 1), symbol.K(5)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.PutToken(jobs, []byte("job-a"), 101))
	must(s.PutToken(jobs, []byte("job-a"), 102)) // same bytes: distinct memos
	must(s.PutToken(other, []byte("other-x"), 103))
	must(s.Put(other, []byte("untokened")))
	if v, ok, err := s.GetSkipToken(jobs, 201); err != nil || !ok || string(v) != "job-a" {
		t.Fatalf("take 201: %q %v %v", v, ok, err)
	}
	if _, ok, err := s.GetSkipToken(symbol.K(9), 202); err != nil || ok {
		t.Fatalf("empty skip 202: %v %v", ok, err)
	}
	must(s.PutDelayedToken(trig, dest, []byte("hidden"), 104))
	must(s.snapshot())
	// After the snapshot, in the log only.
	must(s.PutToken(late, []byte("late"), 105))
	if k, v, err := s.AltTakeToken([]symbol.Key{symbol.K(8), late}, 203, nil); err != nil || !k.Equal(late) || string(v) != "late" {
		t.Fatalf("alt take 203: %v %q %v", k, v, err)
	}
	must(s.Close())
}

func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestParentDataDirOpens: the directory the parent commit wrote recovers here
// to the same directory of folders and the same dedup answers.
func TestParentDataDirOpens(t *testing.T) {
	s := openStore(t, copyDir(t, filepath.Join("testdata", "parent-datadir")), compatCfg, withShards(2))
	defer s.Close()
	if m, d, tok := s.occupancy(nil).memos, s.occupancy(nil).delayed, liveTokens(s); m != 3 || d != 1 || tok != 8 {
		t.Fatalf("recovered %d memos, %d hidden values, %d tokens; the parent left 3, 1 and 8", m, d, tok)
	}
	// Every applied put token still deduplicates.
	for tok := uint64(101); tok <= 105; tok++ {
		if err := s.PutToken(symbol.K(1), []byte("retry"), tok); err != nil {
			t.Fatal(err)
		}
	}
	if dups, puts := s.dupPuts.Load(), s.puts.Load(); dups != 5 || puts != 0 {
		t.Fatalf("retried puts: %d dedups, %d puts, want all 5 deduplicated", dups, puts)
	}
	// Every take result still answers its retry, consuming nothing.
	if v, ok, err := s.GetSkipToken(symbol.K(1), 201); err != nil || !ok || string(v) != "job-a" {
		t.Fatalf("retry of take 201: %q %v %v", v, ok, err)
	}
	mustPut(t, s, symbol.K(9), "arrived since")
	if _, ok, err := s.GetSkipToken(symbol.K(9), 202); err != nil || ok {
		t.Fatalf("retry of the empty skip 202 resampled its folder: %v %v", ok, err)
	}
	if k, v, err := s.AltTakeToken([]symbol.Key{symbol.K(8), symbol.K(5)}, 203, nil); err != nil || !k.Equal(symbol.K(5)) || string(v) != "late" {
		t.Fatalf("retry of alt_take 203: %v %q %v", k, v, err)
	}
	if dups, takes, memos := s.dupTakes.Load(), s.takes.Load(), s.occupancy(nil).memos; dups != 3 || takes != 0 || memos != 4 {
		t.Fatalf("retried takes: %d dedups, %d takes, %d memos; want 3 cache hits and nothing consumed", dups, takes, memos)
	}
	// The hidden value is still released by its trigger.
	mustPut(t, s, symbol.K(3), "trigger")
	if v, ok, err := s.GetSkip(symbol.K(4, 1)); err != nil || !ok || string(v) != "hidden" {
		t.Fatalf("released value: %q %v %v", v, ok, err)
	}
}

// recordsOf replays a copy of dir through the durable layer alone and returns
// its records in a canonical order, release tokens (random per run) reduced
// to their presence.
func recordsOf(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	lg, err := durable.Open(copyDir(t, dir), 2, compatCfg, func(r *durable.Record) error {
		out = append(out, fmt.Sprintf("%v key=%s dest=%s payload=%q token=%d rel=%v empty=%v",
			r.Type, r.Key.Canon(), r.Dest.Canon(), r.Payload, r.Token, r.Rel != 0, r.Empty))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// TestDataDirIsWhatTheParentWrites is the reverse direction: the same trace
// run here leaves the same records — same types, keys, payloads, tokens —
// as the parent's directory holds, so the parent reads this commit's files
// as it reads its own (the record codec, internal/durable, is untouched).
func TestDataDirIsWhatTheParentWrites(t *testing.T) {
	dir := t.TempDir()
	compatTrace(t, openStore(t, dir, compatCfg, withShards(2)))
	got, want := recordsOf(t, dir), recordsOf(t, filepath.Join("testdata", "parent-datadir"))
	if !slices.Equal(got, want) {
		t.Fatalf("this commit's data directory holds\n  %s\nthe parent's\n  %s", fmt.Sprint(got), fmt.Sprint(want))
	}
	if len(want) != 12 {
		t.Fatalf("the fixture holds %d records, expected 12: %v", len(want), want)
	}
}
