package folder

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/threadcache"
	"repro/internal/wire"
)

func newTestServer(t *testing.T, cache threadcache.Config) *Server {
	t.Helper()
	s := NewServer(0, "testhost", NewStore(), cache)
	t.Cleanup(s.Close)
	return s
}

func TestHandleOps(t *testing.T) {
	s := newTestServer(t, threadcache.Config{})
	k := symbol.K(1)
	k2 := symbol.K(2)

	if r := s.Handle(&wire.Request{Op: wire.OpPing}, never); r.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("v")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetCopy, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get_copy: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGet, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k}, never); r.Status != wire.StatusEmpty {
		t.Fatalf("get_skip on empty: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPutDelayed, Key: k, Key2: k2, Payload: []byte("d")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put_delayed: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: nil}, never); r.Status != wire.StatusOK {
		t.Fatalf("trigger put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k2}, never); r.Status != wire.StatusOK || string(r.Payload) != "d" {
		t.Fatalf("released value: %+v", r)
	}
	// Alt and watch argument validation.
	if r := s.Handle(&wire.Request{Op: wire.OpAltTake}, never); r.Status != wire.StatusErr {
		t.Fatalf("alt with no keys: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpWatch}, never); r.Status != wire.StatusErr {
		t.Fatalf("watch with no keys: %+v", r)
	}
	// Register is a memo-server op, not a folder-server op.
	if r := s.Handle(&wire.Request{Op: wire.OpRegister}, never); r.Status != wire.StatusErr {
		t.Fatalf("register: %+v", r)
	}
}

// TestHandleCanceledGetReportsError: a get canceled while parked answers
// StatusCanceled, not an error string a caller would have to match.
func TestHandleCanceledGetReportsError(t *testing.T) {
	s := newTestServer(t, threadcache.Config{})
	cancel := make(chan struct{})
	got := make(chan *wire.Response, 1)
	go func() {
		got <- s.Handle(&wire.Request{Op: wire.OpGet, Key: symbol.K(5)}, cancel)
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case r := <-got:
		if r.Status != wire.StatusCanceled {
			t.Fatalf("canceled get: %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
}

// TestCollectOccupancy renders Collect over a store in a known state and
// checks each occupancy and token-table value: memos in two stripes, a
// put_delayed value waiting for its trigger and one whose release is held
// in flight, a blocking alt_take parked on three folders, and tokened takes
// resolved (a put token and a cached take result) and parked (a claim).
func TestCollectOccupancy(t *testing.T) {
	var held []func(bool)
	s := NewStore(WithForward(func(_ symbol.Key, _ []byte, _ uint64, done func(bool)) { held = append(held, done) }))
	srv := NewServer(0, "testhost", s, threadcache.Config{})
	a, b := symbol.K(1), symbol.K(2)
	for n := symbol.Symbol(3); s.shardIndex(a) == s.shardIndex(b); n++ {
		b = symbol.K(n)
	}
	mustPut(t, s, a, "a")
	mustPut(t, s, b, "b1")
	mustPut(t, s, b, "b2")

	trig, idle, dest := symbol.K(100), symbol.K(101), symbol.K(102)
	for _, k := range []symbol.Key{trig, idle} {
		if err := s.PutDelayed(k, dest, []byte("hidden")); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(t, s, trig, "trigger")
	if len(held) != 1 {
		t.Fatalf("%d releases started, want 1", len(held))
	}
	defer held[0](true)

	if err := s.PutToken(symbol.K(200), []byte("p"), 1); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, symbol.K(201), "taken")
	if v, ok, err := s.GetSkipToken(symbol.K(201), 2); err != nil || !ok || string(v) != "taken" {
		t.Fatalf("tokened get_skip: %q %v %v", v, ok, err)
	}

	cancel := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(cancel)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, _ = s.AltTake([]symbol.Key{symbol.K(300), symbol.K(301), symbol.K(302)}, cancel)
	}()
	go func() {
		defer wg.Done()
		_, _ = s.GetToken(symbol.K(303), 3, cancel)
	}()
	for deadline := time.Now().Add(5 * time.Second); s.occupancy(nil).waiters != 4; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiter registrations, want the alt_take's 3 and the get's 1", s.occupancy(nil).waiters)
		}
	}

	reg := obs.NewRegistry()
	reg.RegisterCollector(srv.Collect)
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		// a, b, trig, idle, 200, the alt_take's three and the parked
		// get's one; 201 vanished with its one memo, dest holds nothing yet.
		"folder_folders": 9,
		"folder_memos":   5, // a, b1, b2, trigger, p
		// idle's waiting value and trig's released one, still in flight.
		"folder_delayed_hidden":   2,
		"folder_waiters":          4,
		"folder_tokens":           2, // put token 1 and take 2's result
		"folder_claims_inflight":  1, // get token 3, parked
		"folder_take_cache_bytes": float64(len("taken")),
	} {
		if got := obs.Sum(samples, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	for _, shard := range []struct{ series, total string }{
		{"folder_shard_memos", "folder_memos"},
		{"folder_shard_waiters", "folder_waiters"},
	} {
		if got, want := obs.Sum(samples, shard.series), obs.Sum(samples, shard.total); got != want {
			t.Errorf("%s sums to %v, %s is %v", shard.series, got, shard.total, want)
		}
	}
	stripes := map[string]bool{}
	for _, smp := range samples {
		if smp.Name == "folder_shard_memos" && smp.Value > 0 {
			stripes[smp.Label("shard")] = true
		}
	}
	if len(stripes) < 2 {
		t.Errorf("memos on %d stripes, want a's and b's", len(stripes))
	}
}
