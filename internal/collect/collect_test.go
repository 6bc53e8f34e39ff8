package collect_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/transferable"
)

const adfText = `APP collecttest
HOSTS
a 4 sun4 1
b 4 sun4 1
FOLDERS
0-3 a
4-7 b
PROCESSES
0 boss a
1 worker b
PPC
a <-> b 1
`

func boot(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.BootADF(adfText, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func memoOn(t testing.TB, c *cluster.Cluster, host string) *core.Memo {
	t.Helper()
	m, err := c.NewMemo(host)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNamedObjectLifecycle(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	obj, err := collect.NewNamedObject(m, transferable.Int64(10))
	if err != nil {
		t.Fatal(err)
	}
	// Another process binds by key — the "pointer".
	other := memoOn(t, c, "b")
	bound := collect.BindNamedObject(other, obj.Key())
	v, err := bound.Read()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := transferable.AsInt(v); n != 10 {
		t.Fatalf("read %v", v)
	}
	// Take locks; Put unlocks.
	taken, err := bound.Take()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := transferable.AsInt(taken); n != 10 {
		t.Fatalf("take %v", taken)
	}
	if err := bound.Put(transferable.Int64(11)); err != nil {
		t.Fatal(err)
	}
	v, _ = obj.Read()
	if n, _ := transferable.AsInt(v); n != 11 {
		t.Fatalf("after put-back: %v", v)
	}
}

func TestNamedObjectUpdateAtomic(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	obj, err := collect.NewNamedObject(m, transferable.Int64(0))
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		host := "a"
		if w%2 == 0 {
			host = "b"
		}
		o := collect.BindNamedObject(memoOn(t, c, host), obj.Key())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := o.Update(func(v transferable.Value) (transferable.Value, error) {
					n, _ := transferable.AsInt(v)
					return transferable.Int64(n + 1), nil
				})
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := obj.Read()
	if n, _ := transferable.AsInt(v); n != workers*iters {
		t.Fatalf("count = %d want %d", n, workers*iters)
	}
}

func TestNamedObjectUpdateErrorRestores(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	obj, _ := collect.NewNamedObject(m, transferable.Int64(5))
	boom := errors.New("boom")
	err := obj.Update(func(transferable.Value) (transferable.Value, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The object must not be left locked.
	v, err := obj.Read()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := transferable.AsInt(v); n != 5 {
		t.Fatalf("value after failed update: %v", v)
	}
}

func TestArraySetGet(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	a := collect.NewArray(m, 4, 4)
	for i := uint32(0); i < 4; i++ {
		for j := uint32(0); j < 4; j++ {
			if err := a.Set(transferable.Int64(int64(i*10+j)), i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Bound from another process by name.
	b := collect.BindArray(memoOn(t, c, "b"), a.Name(), 4, 4)
	v, err := b.Get(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := transferable.AsInt(v); n != 23 {
		t.Fatalf("a[2,3] = %v", v)
	}
}

func TestArraySetReplaces(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	a := collect.NewArray(m, 2)
	a.Set(transferable.Int64(1), 0)
	a.Set(transferable.Int64(2), 0)
	v, _ := a.Get(0)
	if n, _ := transferable.AsInt(v); n != 2 {
		t.Fatalf("a[0] = %v", v)
	}
	// Take leaves the folder empty; TryGet sees nothing.
	if _, err := a.Take(0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.TryGet(0); ok {
		t.Fatal("TryGet found a taken element")
	}
}

func TestArrayBounds(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	a := collect.NewArray(m, 2, 3)
	if err := a.Set(transferable.Int64(1), 2, 0); err == nil {
		t.Fatal("out-of-bounds row accepted")
	}
	if err := a.Set(transferable.Int64(1), 0); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if _, err := a.Get(0, 3); err == nil {
		t.Fatal("out-of-bounds column accepted")
	}
}

func TestArrayGetBlocksUntilSet(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	a := collect.NewArray(m, 2)
	got := make(chan transferable.Value, 1)
	go func() {
		v, err := a.Get(1)
		if err == nil {
			got <- v
		}
	}()
	select {
	case <-got:
		t.Fatal("Get returned before Set")
	case <-time.After(30 * time.Millisecond):
	}
	a.Set(transferable.String("late"), 1)
	select {
	case v := <-got:
		if s, _ := transferable.AsString(v); s != "late" {
			t.Fatalf("got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("array read never woke")
	}
}

func TestQueueUnordered(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	q := collect.NewQueue(m)
	const n = 32
	for i := 0; i < n; i++ {
		if err := q.Enqueue(transferable.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int64]bool)
	for i := 0; i < n; i++ {
		v, err := q.Dequeue()
		if err != nil {
			t.Fatal(err)
		}
		x, _ := transferable.AsInt(v)
		if seen[x] {
			t.Fatalf("value %d dequeued twice", x)
		}
		seen[x] = true
	}
	if _, ok, _ := q.TryDequeue(); ok {
		t.Fatal("queue not empty after draining")
	}
}

func TestNamedQueueSharedAcrossProcesses(t *testing.T) {
	c := boot(t)
	qa := collect.NamedQueue(memoOn(t, c, "a"), "pipeline")
	qb := collect.NamedQueue(memoOn(t, c, "b"), "pipeline")
	qa.Enqueue(transferable.String("from-a"))
	v, err := qb.Dequeue()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "from-a" {
		t.Fatalf("got %v", v)
	}
}

func TestJobJarCommonOnly(t *testing.T) {
	c := boot(t)
	j := collect.NewJobJar(memoOn(t, c, "a"), "jobs")
	if _, ok, _ := j.TryGetWork(); ok {
		t.Fatal("empty jar yielded work")
	}
	j.Add(transferable.String("task1"))
	v, err := j.GetWork()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "task1" {
		t.Fatalf("got %v", v)
	}
}

func TestJobJarLocalPreference(t *testing.T) {
	// Work in a process's private jar must be retrievable via GetWork, and
	// only by the owner (other processes don't see private jars).
	c := boot(t)
	owner := collect.NewJobJar(memoOn(t, c, "a"), "jobs2").WithLocal(7)
	other := collect.NewJobJar(memoOn(t, c, "b"), "jobs2").WithLocal(8)

	base := collect.NewJobJar(memoOn(t, c, "a"), "jobs2")
	if err := base.AddLocal(7, transferable.String("io-task")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := other.TryGetWork(); ok {
		t.Fatal("process 8 stole process 7's private task")
	}
	v, err := owner.GetWork()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "io-task" {
		t.Fatalf("got %v", v)
	}
}

func TestJobJarDrainsBothJars(t *testing.T) {
	c := boot(t)
	j := collect.NewJobJar(memoOn(t, c, "a"), "jobs3").WithLocal(1)
	j.Add(transferable.String("common"))
	j.AddLocal(1, transferable.String("private"))
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, err := j.GetWork()
		if err != nil {
			t.Fatal(err)
		}
		s, _ := transferable.AsString(v)
		got[s] = true
	}
	if !got["common"] || !got["private"] {
		t.Fatalf("drained %v", got)
	}
}

func TestFutureResolveWaitTake(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	f, err := collect.NewFuture(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := f.Poll(); ok {
		t.Fatal("unresolved future polled a value")
	}
	consumer := collect.BindFuture(memoOn(t, c, "b"), f.Name())
	got := make(chan transferable.Value, 1)
	go func() {
		v, err := consumer.Wait()
		if err == nil {
			got <- v
		}
	}()
	select {
	case <-got:
		t.Fatal("Wait returned before Resolve")
	case <-time.After(30 * time.Millisecond):
	}
	if err := f.Resolve(transferable.Int64(99)); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if n, _ := transferable.AsInt(v); n != 99 {
			t.Fatalf("got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("future consumer never woke")
	}
	// Multiple Waits see the value; Take consumes it.
	if v, err := f.Wait(); err != nil {
		t.Fatal(err)
	} else if n, _ := transferable.AsInt(v); n != 99 {
		t.Fatalf("second wait: %v", v)
	}
	if _, err := f.Take(); err != nil {
		t.Fatal(err)
	}
}

func TestFutureDoubleResolve(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	f, _ := collect.NewFuture(m)
	if err := f.Resolve(transferable.Int64(1)); err != nil {
		t.Fatal(err)
	}
	err := f.Resolve(transferable.Int64(2))
	if !errors.Is(err, collect.ErrAlreadyResolved) {
		t.Fatalf("second resolve: %v", err)
	}
	// Racing resolvers: exactly one wins.
	f2, _ := collect.NewFuture(m)
	var wins, fails int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := f2.Resolve(transferable.Int64(int64(i)))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				wins++
			} else if errors.Is(err, collect.ErrAlreadyResolved) {
				fails++
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 || fails != 7 {
		t.Fatalf("wins=%d fails=%d", wins, fails)
	}
}

func TestFutureAndThenTrigger(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	f, _ := collect.NewFuture(m)
	jar := collect.NewJobJar(m, "trigger-jar")
	if err := f.AndThen(jar.CommonKey(), transferable.String("continue")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := jar.TryGetWork(); ok {
		t.Fatal("trigger fired before resolve")
	}
	f.Resolve(transferable.Int64(1))
	v, err := jar.GetWork()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "continue" {
		t.Fatalf("got %v", v)
	}
	// The future's value must still be there (trigger consumed nothing).
	if v, err := f.Wait(); err != nil {
		t.Fatal(err)
	} else if n, _ := transferable.AsInt(v); n != 1 {
		t.Fatalf("future value: %v", v)
	}
}

func TestIStructureWriteOnceBlockingRead(t *testing.T) {
	c := boot(t)
	producer := memoOn(t, c, "a")
	is, err := collect.NewIStructure(producer, 8)
	if err != nil {
		t.Fatal(err)
	}
	reader := collect.BindIStructure(memoOn(t, c, "b"), is.Name(), 8)
	got := make(chan int64, 1)
	go func() {
		v, err := reader.Get(5)
		if err == nil {
			n, _ := transferable.AsInt(v)
			got <- n
		}
	}()
	select {
	case <-got:
		t.Fatal("read of unwritten element returned")
	case <-time.After(30 * time.Millisecond):
	}
	// §6.3.3: a task delayed on the element drops into the jar when the
	// element is assigned, and consumes nothing.
	jar := collect.NewJobJar(producer, "istructure-jar")
	if err := is.AndThen(5, jar.CommonKey(), transferable.String("elem5")); err != nil {
		t.Fatal(err)
	}
	if err := is.AndThen(8, jar.CommonKey(), transferable.String("x")); err == nil {
		t.Fatal("out-of-bounds trigger accepted")
	}
	if err := is.Set(5, transferable.Int64(55)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 55 {
			t.Fatalf("got %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("i-structure read never woke")
	}
	if v, err := jar.GetWork(); err != nil {
		t.Fatal(err)
	} else if s, _ := transferable.AsString(v); s != "elem5" {
		t.Fatalf("triggered task: %v", v)
	}
	if err := is.Set(5, transferable.Int64(56)); !errors.Is(err, collect.ErrAlreadyResolved) {
		t.Fatalf("double set: %v", err)
	}
	if err := is.Set(8, transferable.Int64(1)); err == nil {
		t.Fatal("out-of-bounds set accepted")
	}
	if _, err := is.Get(9); err == nil {
		t.Fatal("out-of-bounds get accepted")
	}
}

func TestLockMutualExclusion(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	l, err := collect.NewLock(m)
	if err != nil {
		t.Fatal(err)
	}
	var counter int
	const workers, iters = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		host := "a"
		if w%2 == 0 {
			host = "b"
		}
		mm := memoOn(t, c, host)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ll := &lockAlias{m: mm, l: l}
			for i := 0; i < iters; i++ {
				if err := ll.lock(); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				counter++
				if err := ll.unlock(); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d want %d", counter, workers*iters)
	}
}

// lockAlias exercises cross-process locking through the raw API on the
// lock's key (processes share the folder, not the *Lock value).
type lockAlias struct {
	m *core.Memo
	l *collect.Lock
}

func (a *lockAlias) lock() error {
	_, err := a.m.Get(a.l.Key())
	return err
}
func (a *lockAlias) unlock() error {
	return a.m.Put(a.l.Key(), transferable.Nil{})
}

func TestTryLock(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	l, _ := collect.NewLock(m)
	ok, err := l.TryLock()
	if err != nil || !ok {
		t.Fatalf("TryLock on free lock: %v %v", ok, err)
	}
	ok, err = l.TryLock()
	if err != nil || ok {
		t.Fatalf("TryLock on held lock: %v %v", ok, err)
	}
	l.Unlock()
	if ok, _ := l.TryLock(); !ok {
		t.Fatal("TryLock after unlock failed")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	const permits = 3
	sem, err := collect.NewSemaphore(m, permits)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	cur, maxSeen := 0, 0
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		s := collect.BindSemaphore(memoOn(t, c, "b"), sem.Key())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.P(); err != nil {
				t.Errorf("P: %v", err)
				return
			}
			mu.Lock()
			cur++
			if cur > maxSeen {
				maxSeen = cur
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			if err := s.V(); err != nil {
				t.Errorf("V: %v", err)
			}
		}()
	}
	wg.Wait()
	if maxSeen > permits {
		t.Fatalf("%d concurrent holders exceeded %d permits", maxSeen, permits)
	}
	if _, err := collect.NewSemaphore(m, -1); err == nil {
		t.Fatal("negative semaphore accepted")
	}
}

func TestBarrierRounds(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	const parties = 4
	const rounds = 5
	b, err := collect.NewBarrier(m, parties)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	position := make([]int, parties)
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		host := "a"
		if p%2 == 1 {
			host = "b"
		}
		bp := collect.BindBarrier(memoOn(t, c, host), b.Name(), parties)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				position[p] = r
				// No party may be more than one round ahead of another
				// when passing a barrier.
				for _, other := range position {
					if other < r-1 || other > r+1 {
						t.Errorf("party %d at round %d saw other at %d", p, r, other)
					}
				}
				mu.Unlock()
				if err := bp.Await(); err != nil {
					t.Errorf("await: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

func TestBarrierValidation(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	if _, err := collect.NewBarrier(m, 0); err == nil {
		t.Fatal("0-party barrier accepted")
	}
}

func TestTriggerHelper(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	operand := m.NamedKey("op")
	jar := m.NamedKey("jar")
	if err := collect.Trigger(m, operand, jar, transferable.String("fire")); err != nil {
		t.Fatal(err)
	}
	m.Put(operand, transferable.Int64(1))
	v, err := m.Get(jar)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "fire" {
		t.Fatalf("got %v", v)
	}
}
