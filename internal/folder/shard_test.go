// Tests for the lock-striped Store: empty-key-set regressions, cross-shard
// multi-folder operations, a -race stress workload, and the parallel
// throughput benchmark comparing the sharded store with the historical
// single-mutex layout (withShards(1)).
package folder

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/symbol"
	"repro/internal/wire"
)

// withShards sets a store's stripe count to n, a power of two, in place of
// DefaultShards: one stripe is the historical single-mutex layout, a few
// put a test's folders on shared stripes.
func withShards(n int) Option {
	return func(s *Store) { s.shards, s.mask = make([]shard, n), uint64(n-1) }
}

// The empty key set can never be satisfied; it must fail immediately rather
// than panic (AltTake used to divide by zero) or block forever (Watch used
// to wait on no folders, ignoring everything but cancel).
func TestAltTakeEmptyKeySet(t *testing.T) {
	s := NewStore()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.AltTake(nil, never)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoKeys) {
			t.Fatalf("AltTake(nil) err = %v, want ErrNoKeys", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AltTake(nil) blocked")
	}
}

func TestWatchEmptyKeySet(t *testing.T) {
	s := NewStore()
	done := make(chan error, 1)
	go func() {
		_, err := s.Watch(nil, never)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoKeys) {
			t.Fatalf("Watch(nil) err = %v, want ErrNoKeys", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Watch(nil) blocked")
	}
}

func TestAltSkipEmptyKeySet(t *testing.T) {
	s := NewStore()
	if _, _, ok, _ := s.AltSkip(nil); ok {
		t.Fatal("AltSkip(nil) claimed a memo")
	}
}

// crossShardKeys returns n keys guaranteed to live on n distinct shards.
func crossShardKeys(t *testing.T, s *Store, n int) []symbol.Key {
	t.Helper()
	if len(s.shards) < n {
		t.Fatalf("store has %d shards, need %d", len(s.shards), n)
	}
	keys := make([]symbol.Key, 0, n)
	seen := make(map[uint64]bool)
	for sym := symbol.Symbol(1); len(keys) < n; sym++ {
		k := symbol.K(sym)
		si := s.shardIndex(k)
		if !seen[si] {
			seen[si] = true
			keys = append(keys, k)
		}
		if sym > 1<<16 {
			t.Fatal("could not scatter keys across shards")
		}
	}
	return keys
}

func TestAltTakeAcrossShards(t *testing.T) {
	s := NewStore(withShards(8))
	keys := crossShardKeys(t, s, 4)
	// Immediate hit on each shard in turn.
	for i, k := range keys {
		s.Put(k, []byte{byte(i)})
		got, v, err := s.AltTake(keys, never)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(k) || v[0] != byte(i) {
			t.Fatalf("AltTake = %v %v, want %v %d", got, v, k, i)
		}
	}
	if s.occupancy(nil).folders != 0 {
		t.Fatalf("folders leaked: %d", s.occupancy(nil).folders)
	}
}

func TestAltTakeBlocksAcrossShardsThenWakes(t *testing.T) {
	s := NewStore(withShards(8))
	keys := crossShardKeys(t, s, 4)
	for target := range keys {
		got := make(chan symbol.Key, 1)
		go func() {
			k, _, err := s.AltTake(keys, never)
			if err == nil {
				got <- k
			}
		}()
		select {
		case <-got:
			t.Fatal("AltTake returned with all folders empty")
		case <-time.After(10 * time.Millisecond):
		}
		// Wake via a folder on an arbitrary shard; the shared waiter must
		// be registered on every shard the key set touches.
		s.Put(keys[target], []byte("x"))
		select {
		case k := <-got:
			if !k.Equal(keys[target]) {
				t.Fatalf("woke with %v, want %v", k, keys[target])
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("AltTake never woke for shard of key %d", target)
		}
	}
	if n := s.occupancy(nil).folders; n != 0 {
		t.Fatalf("waiter registration leaked %d folders", n)
	}
}

func TestWatchAcrossShards(t *testing.T) {
	s := NewStore(withShards(8))
	keys := crossShardKeys(t, s, 4)
	woke := make(chan symbol.Key, 1)
	go func() {
		k, err := s.Watch(keys, never)
		if err == nil {
			woke <- k
		}
	}()
	time.Sleep(10 * time.Millisecond)
	s.Put(keys[3], []byte("observed"))
	select {
	case k := <-woke:
		if !k.Equal(keys[3]) {
			t.Fatalf("Watch woke with %v", k)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Watch never fired across shards")
	}
	if s.occupancy(nil).memos != 1 {
		t.Fatalf("Watch consumed the memo: count=%d", s.occupancy(nil).memos)
	}
}

func TestAltTakeCancelAcrossShardsCleansWaiters(t *testing.T) {
	s := NewStore(withShards(8))
	keys := crossShardKeys(t, s, 4)
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.AltTake(keys, cancel)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errc:
		if !errors.Is(err, wire.ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
	deadline := time.Now().Add(time.Second)
	for s.occupancy(nil).folders != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled cross-shard waiter leaked folders (count=%d)", s.occupancy(nil).folders)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleShardStoreStillWorks(t *testing.T) {
	// withShards(1) is the historical single-mutex layout; everything must
	// behave identically.
	s := NewStore(withShards(1))
	a, b := symbol.K(1), symbol.K(2)
	s.Put(a, []byte("A"))
	s.PutDelayed(b, a, []byte("D"))
	s.Put(b, []byte("B"))
	got := map[string]bool{}
	for i := 0; i < 3; i++ {
		k, v, err := s.AltTake([]symbol.Key{a, b}, never)
		if err != nil {
			t.Fatal(err)
		}
		got[k.Canon()+"="+string(v)] = true
	}
	for _, want := range []string{"1=A", "1=D", "2=B"} {
		if !got[want] {
			t.Fatalf("missing %q in %v", want, got)
		}
	}
	if s.occupancy(nil).memos != 0 || s.occupancy(nil).folders != 0 {
		t.Fatalf("residue: memos=%d folders=%d", s.occupancy(nil).memos, s.occupancy(nil).folders)
	}
}

// TestStoreStressCrossShard hammers a sharded store with concurrent Put,
// PutDelayed, Get, AltTake, and Watch over overlapping folder sets with
// random cancellation, then checks that every memo was consumed exactly
// once and the counters balance. Run with -race.
func TestStoreStressCrossShard(t *testing.T) {
	s := NewStore(withShards(8))
	const (
		nFolders    = 12
		producers   = 6
		consumers   = 6
		perProducer = 300
	)
	keys := make([]symbol.Key, nFolders)
	for i := range keys {
		keys[i] = symbol.K(symbol.Symbol(i+1), uint32(i))
	}
	enc := func(id uint32) []byte {
		return []byte{byte(id), byte(id >> 8), byte(id >> 16), byte(id >> 24)}
	}
	dec := func(v []byte) uint32 {
		return uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16 | uint32(v[3])<<24
	}

	var nextID atomic.Uint32
	var consumed atomic.Int64
	var seen sync.Map // id -> true, for duplicate detection
	stop := make(chan struct{})

	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for i := 0; i < perProducer; i++ {
				k := keys[rng.Intn(nFolders)]
				if i%5 == 0 {
					// Hide a value behind a trigger on a (likely) different
					// shard, then fire the trigger. Both payloads are
					// accountable ids.
					trig := keys[rng.Intn(nFolders)]
					s.PutDelayed(trig, k, enc(nextID.Add(1)))
					s.Put(trig, enc(nextID.Add(1)))
				} else {
					s.Put(k, enc(nextID.Add(1)))
				}
			}
		}(p)
	}

	var consWG sync.WaitGroup
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func(c int) {
			defer consWG.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1000))
			record := func(v []byte) {
				id := dec(v)
				if _, dup := seen.LoadOrStore(id, true); dup {
					t.Errorf("memo %d consumed twice", id)
				}
				consumed.Add(1)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Overlapping random subset of the folder set.
				lo := rng.Intn(nFolders)
				hi := lo + 1 + rng.Intn(nFolders-lo)
				sub := keys[lo:hi]
				// Cancel at a random short deadline so blocked operations
				// retry and eventually observe stop.
				cancel := make(chan struct{})
				tm := time.AfterFunc(time.Duration(1+rng.Intn(3))*time.Millisecond,
					func() { close(cancel) })
				switch rng.Intn(8) {
				case 0: // single-folder blocking get
					if v, err := s.Get(sub[0], cancel); err == nil {
						record(v)
					}
				case 1: // watch (does not consume), then non-blocking sweep
					if _, err := s.Watch(sub, cancel); err == nil {
						if _, v, ok, _ := s.AltSkip(sub); ok {
							record(v)
						}
					}
				default:
					if _, v, err := s.AltTake(sub, cancel); err == nil {
						record(v)
					}
				}
				tm.Stop()
			}
		}(c)
	}

	prodWG.Wait()
	total := int64(nextID.Load())
	deadline := time.Now().Add(30 * time.Second)
	for consumed.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("consumed %d of %d memos before deadline (lost memos?)",
				consumed.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	consWG.Wait()

	if got := consumed.Load(); got != total {
		t.Fatalf("consumed %d memos, produced %d", got, total)
	}
	if puts := s.puts.Load(); puts != total {
		t.Errorf("puts = %d, want %d (every id delivered by exactly one Put)", puts, total)
	}
	if takes := s.takes.Load(); takes != total {
		t.Errorf("takes = %d, want %d", takes, total)
	}
	if in, out := s.delayedIn.Load(), s.released.Load(); in != out {
		t.Errorf("delayed in = %d, released = %d: hidden values stranded", in, out)
	}
	if n := s.occupancy(nil).memos; n != 0 {
		t.Errorf("memos = %d after drain", n)
	}
	if n := s.occupancy(nil).delayed; n != 0 {
		t.Errorf("hidden delayed = %d after drain", n)
	}
	if n := s.occupancy(nil).folders; n != 0 {
		t.Errorf("folders = %d after all workers joined", n)
	}
}

// BenchmarkStoreParallelPutGet measures put+get round trips with G
// goroutines over disjoint folders, on the sharded store and on the
// single-mutex baseline (withShards(1)). Disjoint folders are the paper's
// scaling case: a folder server should serve independent folders on
// independent cores.
func BenchmarkStoreParallelPutGet(b *testing.B) {
	payload := make([]byte, 64)
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"baseline-1shard", 1},
		{"sharded", DefaultShards},
	} {
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", cfg.name, g), func(b *testing.B) {
				s := NewStore(withShards(cfg.shards))
				per := b.N/g + 1
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < g; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						k := symbol.K(symbol.Symbol(i+1), uint32(i))
						for j := 0; j < per; j++ {
							s.Put(k, payload)
							if _, err := s.Get(k, never); err != nil {
								b.Error(err)
								return
							}
						}
					}(i)
				}
				wg.Wait()
			})
		}
	}
}
