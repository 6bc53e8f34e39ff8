package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// twoHost spreads nine folder servers over two hosts so alt/watch paths
// regularly cross servers.
const twoHostADF = `APP coretest
HOSTS
a 4 sun4 1
b 4 sun4 1
FOLDERS
0-3 a
4-8 b
PROCESSES
0 boss a
1 worker b
PPC
a <-> b 1
`

func boot(t testing.TB) *cluster.Cluster {
	t.Helper()
	c, err := cluster.BootADF(twoHostADF, cluster.Options{})
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

func TestPutGetRoundTripsValueGraph(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	k := m.NamedKey("graph")
	l := transferable.NewList(transferable.Int64(1))
	l.Append(l) // cyclic value through the whole stack
	if err := m.Put(k, l); err != nil {
		t.Fatal(err)
	}
	v, err := m.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*transferable.List)
	if got.Len() != 2 || got.At(1) != transferable.Value(got) {
		t.Fatal("cycle lost through put/get")
	}
}

func TestGetBlocksAcrossProcesses(t *testing.T) {
	c := boot(t)
	producer := memoOn(t, c, "a")
	consumer := memoOn(t, c, "b")
	k := producer.NamedKey("handoff")
	got := make(chan transferable.Value, 1)
	go func() {
		v, err := consumer.Get(k)
		if err == nil {
			got <- v
		}
	}()
	select {
	case <-got:
		t.Fatal("Get returned before Put")
	case <-time.After(30 * time.Millisecond):
	}
	if err := producer.Put(k, transferable.String("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if s, _ := transferable.AsString(v); s != "x" {
			t.Fatalf("got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke")
	}
}

func TestGetCancel(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := m.GetCancel(m.NamedKey("nothing"), cancel)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errc:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel ignored")
	}
}

func TestGetCopySemantics(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	k := m.NamedKey("record")
	if err := m.Put(k, transferable.Int64(42)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := m.GetCopy(k)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := transferable.AsInt(v); n != 42 {
			t.Fatalf("copy %d = %v", i, v)
		}
	}
	// Original still extractable exactly once.
	if _, err := m.Get(k); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.GetSkip(k); ok {
		t.Fatal("memo still present after final get")
	}
}

func TestGetSkipPolling(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	k := m.NamedKey("poll")
	if _, ok, err := m.GetSkip(k); err != nil || ok {
		t.Fatalf("empty GetSkip = %v %v", ok, err)
	}
	m.Put(k, transferable.Bool(true))
	v, ok, err := m.GetSkip(k)
	if err != nil || !ok {
		t.Fatalf("GetSkip after put: %v %v", ok, err)
	}
	if b := v.(transferable.Bool); !bool(b) {
		t.Fatalf("value %v", v)
	}
}

func TestPutDelayedDataflow(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	operand := m.NamedKey("operand")
	jobJar := m.NamedKey("jobjar")
	if err := m.PutDelayed(operand, jobJar, transferable.String("operation")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.GetSkip(jobJar); ok {
		t.Fatal("operation visible before operand arrived")
	}
	if err := m.Put(operand, transferable.Int64(5)); err != nil {
		t.Fatal(err)
	}
	// Release is asynchronous; block for it.
	v, err := m.Get(jobJar)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := transferable.AsString(v); s != "operation" {
		t.Fatalf("job jar got %v", v)
	}
}

// keysOnDistinctServers finds n keys that place on pairwise distinct folder
// servers, guaranteeing the multi-server alt path.
func keysOnDistinctServers(t *testing.T, c *cluster.Cluster, m *core.Memo, n int) []symbol.Key {
	t.Helper()
	seen := make(map[int]bool)
	var out []symbol.Key
	for i := uint32(0); len(out) < n && i < 100000; i++ {
		k := m.Key(m.Symbol("alt"), i)
		id := c.Place.Place(k).ID
		if !seen[id] {
			seen[id] = true
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d keys on distinct servers", n)
	}
	return out
}

func TestGetAltSingleServer(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	// Two keys forced onto the same server by using the same placement.
	base := m.Key(m.Symbol("same"), 1)
	id := c.Place.Place(base).ID
	var same []symbol.Key
	for i := uint32(0); len(same) < 2 && i < 100000; i++ {
		k := m.Key(m.Symbol("same"), i)
		if c.Place.Place(k).ID == id {
			same = append(same, k)
		}
	}
	m.Put(same[1], transferable.Int64(7))
	k, v, err := m.GetAlt(same...)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(same[1]) {
		t.Fatalf("satisfied key %v want %v", k, same[1])
	}
	if n, _ := transferable.AsInt(v); n != 7 {
		t.Fatalf("value %v", v)
	}
}

func TestGetAltAcrossServersImmediate(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	keys := keysOnDistinctServers(t, c, m, 3)
	m.Put(keys[2], transferable.String("third"))
	k, v, err := m.GetAlt(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Equal(keys[2]) {
		t.Fatalf("satisfied key %v want %v", k, keys[2])
	}
	if s, _ := transferable.AsString(v); s != "third" {
		t.Fatalf("value %v", v)
	}
}

func TestGetAltAcrossServersBlocksThenWakes(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	other := memoOn(t, c, "b")
	keys := keysOnDistinctServers(t, c, m, 3)
	type res struct {
		k symbol.Key
		v transferable.Value
	}
	got := make(chan res, 1)
	go func() {
		k, v, err := m.GetAlt(keys...)
		if err == nil {
			got <- res{k, v}
		}
	}()
	select {
	case <-got:
		t.Fatal("GetAlt returned with all folders empty")
	case <-time.After(50 * time.Millisecond):
	}
	if err := other.Put(keys[0], transferable.Int64(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !r.k.Equal(keys[0]) {
			t.Fatalf("satisfied key %v", r.k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("distributed GetAlt never woke")
	}
}

func TestGetAltCancelAcrossServers(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	keys := keysOnDistinctServers(t, c, m, 2)
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := m.GetAltCancel(cancel, keys...)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	close(cancel)
	select {
	case err := <-errc:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetAlt cancel ignored")
	}
}

func TestGetAltSkip(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	keys := keysOnDistinctServers(t, c, m, 3)
	if _, _, ok, err := m.GetAltSkip(keys...); err != nil || ok {
		t.Fatalf("empty alt skip: %v %v", ok, err)
	}
	m.Put(keys[1], transferable.Int64(9))
	k, v, ok, err := m.GetAltSkip(keys...)
	if err != nil || !ok {
		t.Fatalf("alt skip: %v %v", ok, err)
	}
	if !k.Equal(keys[1]) {
		t.Fatalf("key %v", k)
	}
	if n, _ := transferable.AsInt(v); n != 9 {
		t.Fatalf("value %v", v)
	}
}

// TestGetAltSkipOneRequestPerServer: keys that share a folder server cost
// one alt_skip request to it, not one get_skip per key, and the store's
// answer names the key it took from.
func TestGetAltSkipOneRequestPerServer(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	var keys []symbol.Key
	for i := uint32(0); len(keys) < 3 && i < 100000; i++ {
		k := m.Key(m.Symbol("grouped"), i)
		if srv := c.Place.Place(k); srv.Host == "a" && (keys == nil || srv.ID == c.Place.Place(keys[0]).ID) {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatal("could not find three keys on one folder server on a")
	}
	localOps := func() float64 {
		samples, err := c.Samples("a")
		if err != nil {
			t.Fatal(err)
		}
		return obs.Sum(samples, "node_local_ops_total")
	}
	before := localOps()
	if _, _, ok, err := m.GetAltSkip(keys...); err != nil || ok {
		t.Fatalf("empty alt skip: %v %v", ok, err)
	}
	if got := localOps() - before; got != 1 {
		t.Fatalf("GetAltSkip over one folder server made %v requests, want 1", got)
	}
	if err := m.Put(keys[2], transferable.Int64(5)); err != nil {
		t.Fatal(err)
	}
	k, v, ok, err := m.GetAltSkip(keys...)
	if err != nil || !ok || !k.Equal(keys[2]) {
		t.Fatalf("alt skip after a put under %v: %v %v %v", keys[2], k, ok, err)
	}
	if n, _ := transferable.AsInt(v); n != 5 {
		t.Fatalf("value %v", v)
	}
}

func TestGetAltNoKeys(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	if _, _, err := m.GetAlt(); err == nil {
		t.Fatal("GetAlt() with no keys accepted")
	}
	if _, _, _, err := m.GetAltSkip(); err == nil {
		t.Fatal("GetAltSkip() with no keys accepted")
	}
}

func TestAltConsumesExactlyOnce(t *testing.T) {
	// N consumers race via GetAlt over folders fed with exactly N memos:
	// each memo is delivered exactly once.
	c := boot(t)
	m := memoOn(t, c, "a")
	keys := keysOnDistinctServers(t, c, m, 4)
	const total = 40
	var wg sync.WaitGroup
	seen := make(chan int64, total)
	for w := 0; w < 4; w++ {
		consumer := memoOn(t, c, "b")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				_, v, err := consumer.GetAlt(keys...)
				if err != nil {
					t.Errorf("GetAlt: %v", err)
					return
				}
				n, _ := transferable.AsInt(v)
				seen <- n
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := m.Put(keys[i%len(keys)], transferable.Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(seen)
	got := make(map[int64]bool)
	for n := range seen {
		if got[n] {
			t.Fatalf("memo %d delivered twice", n)
		}
		got[n] = true
	}
	if len(got) != total {
		t.Fatalf("delivered %d distinct memos want %d", len(got), total)
	}
}

func TestPutGo(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	k := m.NamedKey("gonative")
	if err := m.PutGo(k, map[string]any{"n": 3, "s": "hi"}); err != nil {
		t.Fatal(err)
	}
	v, err := m.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	r := v.(*transferable.Record)
	if n, _ := r.Get("n"); n.(transferable.Int64) != 3 {
		t.Fatalf("record %v", transferable.ToGo(v))
	}
	if err := m.PutGo(k, struct{}{}); err == nil {
		t.Fatal("unsupported Go type accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := core.New(core.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	c := boot(t)
	m := memoOn(t, c, "a")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedRecordImplicitLock(t *testing.T) {
	// §6.3.1: get the record, update, put it back; concurrent updaters are
	// implicitly serialized because the folder is empty mid-update.
	c := boot(t)
	m := memoOn(t, c, "a")
	k := m.NamedKey("counter-record")
	if err := m.Put(k, transferable.Int64(0)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		host := "a"
		if w%2 == 1 {
			host = "b"
		}
		mm := memoOn(t, c, host)
		wg.Add(1)
		go func(mm *core.Memo) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v, err := mm.Get(k) // record locked
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				n, _ := transferable.AsInt(v)
				if err := mm.Put(k, transferable.Int64(n+1)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(mm)
	}
	wg.Wait()
	v, err := m.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := transferable.AsInt(v); n != workers*iters {
		t.Fatalf("counter = %d want %d (implicit lock broken)", n, workers*iters)
	}
}

func TestProgramPumping(t *testing.T) {
	// §4.4 future work: ship executables to remote hosts without NFS.
	c := boot(t)
	m := memoOn(t, c, "a")
	blob := []byte("ELF\x7f pretend worker binary")
	if err := m.PumpProgram("b", "worker1", blob); err != nil {
		t.Fatal(err)
	}
	// Visible from the target host...
	other := memoOn(t, c, "b")
	got, err := other.FetchProgram("b", "worker1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Fatalf("pumped program corrupted: %q", got)
	}
	// ...and fetchable remotely through forwarding.
	got2, err := m.FetchProgram("b", "worker1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != string(blob) {
		t.Fatal("remote fetch corrupted")
	}
	// Not present on other hosts: pumping is host-targeted.
	if _, err := m.FetchProgram("a", "worker1"); err == nil {
		t.Fatal("program appeared on a host it was not pumped to")
	}
	// Unknown host rejected.
	if err := m.PumpProgram("ghost", "worker1", blob); err == nil {
		t.Fatal("pump to unknown host accepted")
	}
	// Empty program name rejected.
	if err := m.PumpProgram("b", "", blob); err == nil {
		t.Fatal("empty program name accepted")
	}
}

// TestErrorsSurfaceAfterShutdown is the regression test for a family of
// discarded-error bugs the errgate analyzer uncovered: poison-pill Puts and
// probe GetSkips whose errors were silently dropped, so a dead cluster
// turned into a hang (the next blocking Get waited on a deposit that never
// happened) or a phantom-empty folder. The fixes surface those errors; this
// test pins the property they rely on — a call against a dead cluster fails
// fast with an error instead of blocking or reporting success.
func TestErrorsSurfaceAfterShutdown(t *testing.T) {
	c, err := cluster.BootADF(twoHostADF, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.NewMemo("a")
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	k := m.NamedKey("gone")
	c.Shutdown()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := m.Put(k, transferable.Int64(1)); err == nil {
			t.Error("Put on a dead cluster reported success")
		}
		if _, ok, err := m.GetSkip(k); err == nil {
			t.Errorf("GetSkip on a dead cluster reported ok=%v with nil error", ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Put/GetSkip blocked on a dead cluster instead of failing")
	}
}

// TestTokenedErrorsNameTheirToken: with retries armed the client stamps
// every put and take with a dedup token, and each error such an op returns
// names it while reading and matching as what it wraps: the canceled get is
// ErrCanceled, a put against a dead cluster reads as the transport's error,
// and a wrapped link or remote failure is still found by errors.As. An op
// that carries no token (get_copy) names none.
func TestTokenedErrorsNameTheirToken(t *testing.T) {
	c, err := cluster.BootADF(twoHostADF, cluster.Options{Resilience: rpc.Resilience{Retries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.NewMemo("a")
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	close(cancel)
	_, err = m.GetCancel(m.NamedKey("nothing"), cancel)
	if !errors.Is(err, core.ErrCanceled) || core.TokenOf(err) == 0 {
		t.Fatalf("canceled tokened get: %v, token %#x; want ErrCanceled with its token", err, core.TokenOf(err))
	}
	if _, err := m.GetCopyCancel(m.NamedKey("nothing"), cancel); !errors.Is(err, core.ErrCanceled) || core.TokenOf(err) != 0 {
		t.Fatalf("canceled get_copy: %v, token %#x; want ErrCanceled with no token", err, core.TokenOf(err))
	}
	c.Shutdown()
	err = m.Put(m.NamedKey("gone"), transferable.Int64(1))
	if err == nil || core.TokenOf(err) == 0 || err.Error() != errors.Unwrap(err).Error() {
		t.Fatalf("put on a dead cluster: %v, token %#x; want its own error with its token", err, core.TokenOf(err))
	}
	var le *rpc.LinkError
	var re *core.RemoteError
	if err := (&core.TokenError{Token: 7, Err: &rpc.LinkError{Sent: true}}); !errors.As(err, &le) || !le.Sent {
		t.Fatalf("a link failure under a token is not found by errors.As: %v", err)
	}
	if err := (&core.TokenError{Token: 7, Err: &core.RemoteError{Msg: "m"}}); !errors.As(err, &re) || re.Msg != "m" {
		t.Fatalf("a remote failure under a token is not found by errors.As: %v", err)
	}
}
