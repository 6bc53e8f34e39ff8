package folder

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/symbol"
	"repro/internal/wire"
)

var never = make(chan struct{}) // a cancel channel that never fires

func TestPutGetSingle(t *testing.T) {
	s := NewStore()
	k := symbol.K(1)
	s.Put(k, []byte("hello"))
	got, err := s.Get(k, never)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestFolderCreatedOnDemandAndVanishes(t *testing.T) {
	s := NewStore()
	k := symbol.K(1)
	if s.occupancy(nil).folders != 0 {
		t.Fatal("folders exist before use")
	}
	s.Put(k, []byte("x"))
	if s.occupancy(nil).folders != 1 {
		t.Fatalf("folders = %d", s.occupancy(nil).folders)
	}
	s.Get(k, never)
	if s.occupancy(nil).folders != 0 {
		t.Fatalf("folder did not vanish after last memo removed: %d", s.occupancy(nil).folders)
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	s := NewStore()
	k := symbol.K(2)
	got := make(chan []byte, 1)
	go func() {
		v, err := s.Get(k, never)
		if err == nil {
			got <- v
		}
	}()
	select {
	case <-got:
		t.Fatal("Get returned before Put")
	case <-time.After(20 * time.Millisecond):
	}
	s.Put(k, []byte("late"))
	select {
	case v := <-got:
		if string(v) != "late" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never woke")
	}
}

func TestGetCancel(t *testing.T) {
	s := NewStore()
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.Get(symbol.K(3), cancel)
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
	// The canceled waiter must not leak a folder.
	deadline := time.Now().Add(time.Second)
	for s.occupancy(nil).folders != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled waiter leaked folder (count=%d)", s.occupancy(nil).folders)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGetCopyDoesNotConsume(t *testing.T) {
	s := NewStore()
	k := symbol.K(4)
	s.Put(k, []byte("keep"))
	a, err := s.GetCopy(k, never)
	if err != nil || string(a) != "keep" {
		t.Fatalf("copy 1: %q %v", a, err)
	}
	b, err := s.GetCopy(k, never)
	if err != nil || string(b) != "keep" {
		t.Fatalf("copy 2: %q %v", b, err)
	}
	if s.occupancy(nil).memos != 1 {
		t.Fatalf("memos = %d", s.occupancy(nil).memos)
	}
	// The original is still gettable.
	if v, err := s.Get(k, never); err != nil || string(v) != "keep" {
		t.Fatalf("final get: %q %v", v, err)
	}
}

func TestGetCopyReturnsIndependentCopy(t *testing.T) {
	s := NewStore()
	k := symbol.K(4)
	s.Put(k, []byte("orig"))
	c, _ := s.GetCopy(k, never)
	c[0] = 'X'
	v, _ := s.Get(k, never)
	if string(v) != "orig" {
		t.Fatalf("stored memo mutated through copy: %q", v)
	}
}

func TestGetSkip(t *testing.T) {
	s := NewStore()
	k := symbol.K(5)
	if _, ok, _ := s.GetSkip(k); ok {
		t.Fatal("GetSkip found a memo in an empty folder")
	}
	if s.occupancy(nil).folders != 0 {
		t.Fatal("GetSkip on missing folder created it")
	}
	s.Put(k, []byte("x"))
	v, ok, _ := s.GetSkip(k)
	if !ok || string(v) != "x" {
		t.Fatalf("GetSkip = %q,%v", v, ok)
	}
	if _, ok, _ := s.GetSkip(k); ok {
		t.Fatal("GetSkip found a consumed memo")
	}
}

func TestUnorderedExtraction(t *testing.T) {
	// Put 0..63; extraction order must be a permutation but NOT the
	// insertion order (the queues are explicitly unordered).
	s := NewStore()
	k := symbol.K(6)
	const n = 64
	for i := 0; i < n; i++ {
		s.Put(k, []byte{byte(i)})
	}
	var order []int
	for i := 0; i < n; i++ {
		v, err := s.Get(k, never)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, int(v[0]))
	}
	sorted := append([]int(nil), order...)
	sort.Ints(sorted)
	for i := 0; i < n; i++ {
		if sorted[i] != i {
			t.Fatalf("extraction lost/duplicated items: %v", sorted)
		}
	}
	fifo := true
	for i, v := range order {
		if v != i {
			fifo = false
			break
		}
	}
	if fifo {
		t.Fatal("extraction was exactly FIFO; unordered queue should shuffle")
	}
}

func TestPutDelayedHiddenUntilTrigger(t *testing.T) {
	s := NewStore()
	trigger, dest := symbol.K(7), symbol.K(8)
	s.PutDelayed(trigger, dest, []byte("payload"))
	if s.occupancy(nil).delayed != 1 {
		t.Fatalf("hidden delayed = %d", s.occupancy(nil).delayed)
	}
	// Hidden: not gettable from trigger or dest.
	if _, ok, _ := s.GetSkip(trigger); ok {
		t.Fatal("delayed value visible in trigger folder")
	}
	if _, ok, _ := s.GetSkip(dest); ok {
		t.Fatal("delayed value visible in dest folder before trigger")
	}
	// Trigger arrives.
	s.Put(trigger, []byte("the trigger"))
	v, ok, _ := s.GetSkip(dest)
	if !ok || string(v) != "payload" {
		t.Fatalf("released value = %q,%v", v, ok)
	}
	// The trigger memo itself stays in the trigger folder.
	tv, ok, _ := s.GetSkip(trigger)
	if !ok || string(tv) != "the trigger" {
		t.Fatalf("trigger memo = %q,%v", tv, ok)
	}
	if s.occupancy(nil).delayed != 0 {
		t.Fatalf("hidden delayed after release = %d", s.occupancy(nil).delayed)
	}
}

func TestPutDelayedMultipleReleasedByOneTrigger(t *testing.T) {
	s := NewStore()
	trigger := symbol.K(9)
	d1, d2 := symbol.K(10), symbol.K(11)
	s.PutDelayed(trigger, d1, []byte("a"))
	s.PutDelayed(trigger, d2, []byte("b"))
	s.Put(trigger, []byte("go"))
	if _, ok, _ := s.GetSkip(d1); !ok {
		t.Fatal("first delayed value not released")
	}
	if _, ok, _ := s.GetSkip(d2); !ok {
		t.Fatal("second delayed value not released")
	}
}

func TestPutDelayedChain(t *testing.T) {
	// Release into a folder that itself holds a delayed value: the release
	// acts as an arriving memo and must trigger the next stage (dataflow).
	s := NewStore()
	a, b, c := symbol.K(12), symbol.K(13), symbol.K(14)
	s.PutDelayed(b, c, []byte("stage2"))
	s.PutDelayed(a, b, []byte("stage1"))
	s.Put(a, []byte("spark"))
	if v, ok, _ := s.GetSkip(c); !ok || string(v) != "stage2" {
		t.Fatalf("chain did not propagate: %q %v", v, ok)
	}
	if v, ok, _ := s.GetSkip(b); !ok || string(v) != "stage1" {
		t.Fatalf("intermediate stage lost: %q %v", v, ok)
	}
}

func TestPutDelayedForwardHook(t *testing.T) {
	var forwarded []string
	var tokens []uint64
	var mu sync.Mutex
	s := NewStore(WithForward(func(dest symbol.Key, payload []byte, relToken uint64, done func(bool)) {
		mu.Lock()
		forwarded = append(forwarded, dest.Canon()+"="+string(payload))
		tokens = append(tokens, relToken)
		mu.Unlock()
		done(true)
	}))
	s.PutDelayed(symbol.K(1), symbol.K(2, 3), []byte("x"))
	s.Put(symbol.K(1), nil)
	mu.Lock()
	defer mu.Unlock()
	if len(forwarded) != 1 || forwarded[0] != "2/3=x" {
		t.Fatalf("forwarded = %v", forwarded)
	}
	if len(tokens) != 1 || tokens[0] == 0 {
		t.Fatalf("release token = %v, want one non-zero token", tokens)
	}
}

// TestReleaseDoneOutlivesTriggerKey: a forwarded release ends after the
// triggering put has returned, when the caller (the wire decoder, in a
// server) may have reused the trigger key's storage; done must still settle
// the entry in the trigger's folder.
func TestReleaseDoneOutlivesTriggerKey(t *testing.T) {
	var done func(bool)
	s := NewStore(WithForward(func(_ symbol.Key, _ []byte, _ uint64, d func(bool)) { done = d }))
	trigger := symbol.K(1, 2)
	if err := s.PutDelayed(trigger, symbol.K(3), []byte("x")); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, trigger, "go")
	trigger.X[0] = 9 // the caller's buffer, reused
	done(true)
	if n := s.occupancy(nil).delayed; n != 0 {
		t.Fatalf("%d hidden values after the delivered release, want 0", n)
	}
}

func TestPutDelayedReleaseWakesBlockedGetter(t *testing.T) {
	s := NewStore()
	trigger, dest := symbol.K(15), symbol.K(16)
	got := make(chan []byte, 1)
	go func() {
		v, err := s.Get(dest, never)
		if err == nil {
			got <- v
		}
	}()
	time.Sleep(5 * time.Millisecond)
	s.PutDelayed(trigger, dest, []byte("wake"))
	s.Put(trigger, nil)
	select {
	case v := <-got:
		if string(v) != "wake" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked getter not woken by delayed release")
	}
}

func TestAltTakeImmediate(t *testing.T) {
	s := NewStore()
	ks := []symbol.Key{symbol.K(20), symbol.K(21), symbol.K(22)}
	s.Put(ks[1], []byte("middle"))
	k, v, err := s.AltTake(ks, never)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(ks[1]) || string(v) != "middle" {
		t.Fatalf("AltTake = %v %q", k, v)
	}
}

func TestAltTakeBlocksThenWakes(t *testing.T) {
	s := NewStore()
	ks := []symbol.Key{symbol.K(23), symbol.K(24)}
	type result struct {
		k symbol.Key
		v []byte
	}
	got := make(chan result, 1)
	go func() {
		k, v, err := s.AltTake(ks, never)
		if err == nil {
			got <- result{k, v}
		}
	}()
	select {
	case <-got:
		t.Fatal("AltTake returned with all folders empty")
	case <-time.After(20 * time.Millisecond):
	}
	s.Put(ks[0], []byte("first"))
	select {
	case r := <-got:
		if !r.k.Equal(ks[0]) || string(r.v) != "first" {
			t.Fatalf("AltTake = %v %q", r.k, r.v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AltTake never woke")
	}
}

func TestAltTakeEventuallyDrainsAllFolders(t *testing.T) {
	// Nondeterministic choice must still be able to reach every folder.
	s := NewStore()
	ks := []symbol.Key{symbol.K(25), symbol.K(26), symbol.K(27)}
	for i, k := range ks {
		s.Put(k, []byte{byte(i)})
	}
	seen := make(map[byte]bool)
	for range ks {
		_, v, err := s.AltTake(ks, never)
		if err != nil {
			t.Fatal(err)
		}
		seen[v[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("AltTake drained %d distinct folders, want 3", len(seen))
	}
	if s.occupancy(nil).memos != 0 {
		t.Fatalf("memos left: %d", s.occupancy(nil).memos)
	}
}

func TestAltSkip(t *testing.T) {
	s := NewStore()
	ks := []symbol.Key{symbol.K(28), symbol.K(29)}
	if _, _, ok, _ := s.AltSkip(ks); ok {
		t.Fatal("AltSkip found memo in empty folders")
	}
	s.Put(ks[1], []byte("z"))
	k, v, ok, _ := s.AltSkip(ks)
	if !ok || !k.Equal(ks[1]) || string(v) != "z" {
		t.Fatalf("AltSkip = %v %q %v", k, v, ok)
	}
}

func TestWatchDoesNotConsume(t *testing.T) {
	s := NewStore()
	k := symbol.K(30)
	woke := make(chan symbol.Key, 1)
	go func() {
		got, err := s.Watch([]symbol.Key{k}, never)
		if err == nil {
			woke <- got
		}
	}()
	time.Sleep(5 * time.Millisecond)
	s.Put(k, []byte("observed"))
	select {
	case got := <-woke:
		if !got.Equal(k) {
			t.Fatalf("Watch woke with %v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Watch never fired")
	}
	if s.occupancy(nil).memos != 1 {
		t.Fatalf("Watch consumed the memo: count=%d", s.occupancy(nil).memos)
	}
}

func TestWatchImmediateWhenNonEmpty(t *testing.T) {
	s := NewStore()
	k := symbol.K(31)
	s.Put(k, []byte("x"))
	got, err := s.Watch([]symbol.Key{symbol.K(99), k}, never)
	if err != nil || !got.Equal(k) {
		t.Fatalf("Watch = %v %v", got, err)
	}
}

func TestWatchCancel(t *testing.T) {
	s := NewStore()
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.Watch([]symbol.Key{symbol.K(32)}, cancel)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errc:
		if !errors.Is(err, wire.ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Watch cancel ignored")
	}
}

func TestManyProducersManyConsumers(t *testing.T) {
	s := NewStore()
	k := symbol.K(40)
	const producers, consumers = 8, 8
	const perProducer = 200
	var wg sync.WaitGroup
	sum := make(chan int, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for {
				v, err := s.Get(k, never)
				if err != nil {
					return
				}
				n := int(v[0]) | int(v[1])<<8
				if n == 0xFFFF {
					sum <- local
					return
				}
				local += n
			}
		}()
	}
	want := 0
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				n := p*perProducer + i
				want := n % 1000
				s.Put(k, []byte{byte(want), byte(want >> 8)})
			}
		}(p)
	}
	for p := 0; p < producers; p++ {
		for i := 0; i < perProducer; i++ {
			want += (p*perProducer + i) % 1000
		}
	}
	// Poison pills after producers finish.
	done := make(chan struct{})
	go func() {
		wg.Wait() // consumers still running; wait only for producers via count
		close(done)
	}()
	// Wait for all real memos to be consumed, then poison.
	deadline := time.Now().Add(10 * time.Second)
	for s.occupancy(nil).memos > 0 || s.puts.Load() < producers*perProducer {
		if time.Now().After(deadline) {
			t.Fatal("memos not drained")
		}
		time.Sleep(time.Millisecond)
	}
	for c := 0; c < consumers; c++ {
		s.Put(k, []byte{0xFF, 0xFF})
	}
	total := 0
	for c := 0; c < consumers; c++ {
		select {
		case v := <-sum:
			total += v
		case <-time.After(5 * time.Second):
			t.Fatal("consumer never finished")
		}
	}
	if total != want {
		t.Fatalf("sum = %d want %d (lost or duplicated memos)", total, want)
	}
}

func TestEmptyPayloadMemo(t *testing.T) {
	// Zero-length memos are legal (pure synchronization tokens).
	s := NewStore()
	k := symbol.K(52)
	s.Put(k, nil)
	v, err := s.Get(k, never)
	if err != nil || len(v) != 0 {
		t.Fatalf("empty memo: %v %v", v, err)
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStore()
	k := symbol.K(53)
	s.Put(k, []byte("a"))
	s.GetCopy(k, never)
	s.Get(k, never)
	s.PutDelayed(symbol.K(54), symbol.K(55), []byte("d"))
	s.Put(symbol.K(54), nil)
	s.Get(symbol.K(55), never)
	// Puts: 2 explicit + 1 delayed release (released via local Put).
	puts, takes, copies, in, out := s.puts.Load(), s.takes.Load(), s.copies.Load(), s.delayedIn.Load(), s.released.Load()
	if puts != 3 || takes != 2 || copies != 1 || in != 1 || out != 1 {
		t.Fatalf("puts %d takes %d copies %d delayed %d released %d", puts, takes, copies, in, out)
	}
}

func TestDistinctKeysDistinctFolders(t *testing.T) {
	s := NewStore()
	a := symbol.K(60, 1, 2)
	b := symbol.K(60, 1, 3)
	s.Put(a, []byte("A"))
	s.Put(b, []byte("B"))
	v, _, _ := s.GetSkip(b)
	if string(v) != "B" {
		t.Fatalf("key separation broken: %q", v)
	}
}

func BenchmarkPutGet(b *testing.B) {
	s := NewStore()
	k := symbol.K(1)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put(k, payload)
		if _, err := s.Get(k, never); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutGetParallel(b *testing.B) {
	s := NewStore()
	payload := make([]byte, 64)
	b.RunParallel(func(pb *testing.PB) {
		k := symbol.K(symbol.Symbol(1), uint32(time.Now().UnixNano()%1024))
		for pb.Next() {
			s.Put(k, payload)
			if _, err := s.Get(k, never); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ExampleStore_PutDelayed() {
	s := NewStore()
	operand := symbol.K(symbol.Named("operand"))
	jobJar := symbol.K(symbol.Named("jobjar"))
	// Arrange for an operation to drop into the job jar when the operand
	// arrives (§6.3.3 dataflow).
	s.PutDelayed(operand, jobJar, []byte("add-step"))
	s.Put(operand, []byte("42"))
	op, _, _ := s.GetSkip(jobJar)
	fmt.Println(string(op))
	// Output: add-step
}
