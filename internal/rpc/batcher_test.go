package rpc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// frameLog is an instant frameSender that records when each entry's frame
// shipped (by entry ID) and how many entries each frame carried.
type frameLog struct {
	mu      sync.Mutex
	shipped map[uint64]time.Time
	frames  []int
}

func (f *frameLog) Send(msg []byte) error {
	_, entries, err := wire.DecodeBatch(msg)
	if err != nil {
		return err
	}
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shipped == nil {
		f.shipped = make(map[uint64]time.Time)
	}
	for _, e := range entries {
		f.shipped[e.ID] = now
	}
	f.frames = append(f.frames, len(entries))
	return nil
}

// TestBatcherNoLostWakeup: with no timer anywhere in the batcher, the
// signal-after-append protocol alone gets every entry of 32 racing adders
// into a frame, promptly.
func TestBatcherNoLostWakeup(t *testing.T) {
	log := &frameLog{}
	b := newBatcher(wire.BatchRequest, Policy{}.withDefaults(), log, nil)
	defer b.close()

	const adders = 32
	added := make([]map[uint64]time.Time, adders)
	deadline := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			mine := make(map[uint64]time.Time)
			for i := 0; time.Now().Before(deadline); i++ {
				id := uint64(g)<<32 | uint64(i)
				mine[id] = time.Now()
				b.add(wire.BatchEntry{ID: id})
				time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
			}
			added[g] = mine
		}()
	}
	wg.Wait()

	// The last entries may still be in the sender's hands; a lost wake-up
	// would leave them in the queue for good.
	total := 0
	for _, mine := range added {
		total += len(mine)
	}
	for wait := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		log.mu.Lock()
		n := len(log.shipped)
		log.mu.Unlock()
		if n == total {
			break
		}
		if time.Now().After(wait) {
			t.Fatalf("%d of %d entries shipped a second after the last add", n, total)
		}
	}
	for _, mine := range added {
		for id, at := range mine {
			if d := log.shipped[id].Sub(at); d > time.Second {
				t.Fatalf("entry %x waited %v for its frame", id, d)
			}
		}
	}
}

// TestBatcherCoalescesRunnableAdders: the sender yields once before its
// first take, so goroutines that were runnable when the first add woke it
// get their entries into the same frame. Without the yield this is one
// frame per entry.
func TestBatcherCoalescesRunnableAdders(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	log := &frameLog{}
	b := newBatcher(wire.BatchRequest, Policy{}.withDefaults(), log, nil)
	defer b.close()

	const adders = 16
	release := make(chan struct{})
	var started, wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			<-release
			b.add(wire.BatchEntry{ID: uint64(g)})
		}()
	}
	started.Wait() // every adder is parked on release or about to be
	close(release)
	wg.Wait()
	for wait := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		log.mu.Lock()
		n, frames := len(log.shipped), append([]int(nil), log.frames...)
		log.mu.Unlock()
		if n == adders {
			if len(frames) > 2 {
				t.Fatalf("%d entries from goroutines released together shipped as frames of %v, want <= 2 frames", adders, frames)
			}
			return
		}
		if time.Now().After(wait) {
			t.Fatalf("%d of %d entries shipped", n, adders)
		}
	}
}

// TestBatcherLoneAddShipsAtOnce: an idle batcher does not hold a single
// entry back waiting for company (bounded loosely, to stay host-proof).
func TestBatcherLoneAddShipsAtOnce(t *testing.T) {
	log := &frameLog{}
	b := newBatcher(wire.BatchRequest, Policy{}.withDefaults(), log, nil)
	defer b.close()
	best := time.Hour
	for i := 0; i < 20; i++ {
		id := uint64(i)
		at := time.Now()
		b.add(wire.BatchEntry{ID: id})
		for {
			log.mu.Lock()
			shipped, ok := log.shipped[id]
			log.mu.Unlock()
			if ok {
				best = min(best, shipped.Sub(at))
				break
			}
			if time.Since(at) > time.Second {
				t.Fatalf("lone entry %d not shipped after 1s", i)
			}
			runtime.Gosched()
		}
	}
	if best > time.Millisecond {
		t.Fatalf("best lone add→frame latency %v over 20 tries, want <= 1ms", best)
	}
}

// TestBatcherTakeStopsBeforeMaxBytes: a frame takes entries while they fit
// in MaxBytes; an entry that would push it past starts the next frame, and
// rides alone when it is too big for any company.
func TestBatcherTakeStopsBeforeMaxBytes(t *testing.T) {
	b := &batcher{pol: Policy{MaxCount: 64, MaxBytes: 1000}}
	b.unblocked = sync.NewCond(&b.mu)
	for i, n := range []int{400, 400, 5000, 100} {
		b.queue = append(b.queue, wire.BatchEntry{ID: uint64(i), Msg: make([]byte, n)})
	}
	var frames [][]uint64
	b.mu.Lock()
	for len(b.queue) > 0 {
		var ids []uint64
		for _, e := range b.takeLocked(nil) {
			ids = append(ids, e.ID)
		}
		frames = append(frames, ids)
	}
	b.mu.Unlock()
	if got, want := fmt.Sprint(frames), "[[0 1] [2] [3]]"; got != want {
		t.Fatalf("frames %s, want %s", got, want)
	}
}
