package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

// chaosADF: two hosts, every folder server on b, so all folder traffic from
// a crosses the severable a—b link while consumers on b stay local.
const chaosADF = `APP chaos
HOSTS
a 1 sun4 1
b 1 sun4 1
FOLDERS
0 b
PROCESSES
0 boss a
1 worker b
PPC
a <-> b 1
`

const poisonID = int64(-1)

// chaosCounts is the exactly-once ledger: producers record each memo id as
// acked (put returned OK — the memo is definitely in a folder exactly once)
// or uncertain (put returned an error — the link died with the request
// maybe applied, so 0 or 1 copies exist, never 2).
type chaosCounts struct {
	mu        sync.Mutex
	acked     map[int64]bool
	uncertain map[int64]bool
	seen      map[int64]int // id -> times consumed or drained
}

func (cc *chaosCounts) ack(id int64)  { cc.mu.Lock(); cc.acked[id] = true; cc.mu.Unlock() }
func (cc *chaosCounts) miss(id int64) { cc.mu.Lock(); cc.uncertain[id] = true; cc.mu.Unlock() }
func (cc *chaosCounts) see(id int64)  { cc.mu.Lock(); cc.seen[id]++; cc.mu.Unlock() }

func asInt64(t *testing.T, v transferable.Value) int64 {
	t.Helper()
	id, ok := transferable.AsInt(v)
	if !ok {
		t.Fatalf("memo payload %v, want integer", v)
	}
	return id
}

// waitTimeout fails the test if the group does not finish in time — a hung
// goroutine is exactly the bug class this test exists to catch.
func waitTimeout(t *testing.T, what string, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still running after %v (stuck goroutine)", what, d)
	}
}

// TestChaosSeverRestoreNoLossNoDup runs a mixed Put/Get/AltTake workload
// while the a—b link is severed and later restored, then audits the ledger:
// every acknowledged memo is consumed exactly once, nothing is consumed
// twice, and every caller completes (fast-fail with ErrLinkDown-derived
// errors, never a hang). Run under -race by the dedicated CI chaos step.
func TestChaosSeverRestoreNoLossNoDup(t *testing.T) {
	c := boot(t, chaosADF, Options{
		Resilience: rpc.Resilience{
			Heartbeat: 100 * time.Millisecond,
			Redial:    transport.Backoff{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond},
			Retries:   2,
		},
	})

	newMemo := func(host string) *core.Memo {
		m, err := c.NewMemo(host)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ctl := newMemo("b") // control-plane handle: local to the folders, reliable

	jobs := ctl.NamedKey("jobs")
	alt1 := ctl.NamedKey("alt1")
	alt2 := ctl.NamedKey("alt2")
	sentinel := ctl.NamedKey("sentinel")
	if err := ctl.PutGo(sentinel, int64(7777)); err != nil {
		t.Fatal(err)
	}

	cc := &chaosCounts{
		acked:     make(map[int64]bool),
		uncertain: make(map[int64]bool),
		seen:      make(map[int64]int),
	}

	// Producers on a: unique ids, mostly to jobs, every fifth to an alt
	// folder. Failed puts are recorded uncertain and never blindly re-put —
	// the no-duplicate guarantee belongs to the system, not the workload.
	const producers = 3
	const perProducer = 120
	var attempted atomic.Int64
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		m := newMemo("a")
		prodWG.Add(1)
		go func(p int, m *core.Memo) {
			defer prodWG.Done()
			for i := 0; i < perProducer; i++ {
				id := int64(p*1_000_000 + i)
				key := jobs
				switch i % 10 {
				case 3:
					key = alt1
				case 7:
					key = alt2
				}
				attempted.Add(1)
				if err := m.PutGo(key, id); err != nil {
					cc.miss(id)
				} else {
					cc.ack(id)
				}
			}
		}(p, m)
	}

	// Consumers on b: blocking gets on jobs plus an AltTake over the alt
	// folders. They run local to the folder server, so severing a—b cannot
	// make a consumed memo's ack vanish — the ledger stays exact.
	var consWG sync.WaitGroup
	const jobConsumers = 2
	for i := 0; i < jobConsumers; i++ {
		m := newMemo("b")
		consWG.Add(1)
		go func(m *core.Memo) {
			defer consWG.Done()
			for {
				v, err := m.Get(jobs)
				if err != nil {
					t.Errorf("consumer get: %v", err)
					return
				}
				id := asInt64(t, v)
				if id == poisonID {
					// Another consumer may still be parked; pass it on.
					if err := m.PutGo(jobs, poisonID); err != nil {
						t.Errorf("re-put poison: %v", err)
					}
					return
				}
				cc.see(id)
			}
		}(m)
	}
	consWG.Add(1)
	go func() {
		defer consWG.Done()
		m := newMemo("b")
		for {
			_, v, err := m.GetAlt(alt1, alt2)
			if err != nil {
				t.Errorf("alt consumer: %v", err)
				return
			}
			id := asInt64(t, v)
			if id == poisonID {
				return
			}
			cc.see(id)
		}
	}()

	// Noise on a: remote GetCopy across the chaos link. It must always
	// return — success or fast failure — and succeed again after restore.
	noiseStop := make(chan struct{})
	var noiseOK, noiseErr atomic.Int64
	var noiseWG sync.WaitGroup
	noiseWG.Add(1)
	go func() {
		defer noiseWG.Done()
		m := newMemo("a")
		for {
			select {
			case <-noiseStop:
				return
			default:
			}
			if _, err := m.GetCopy(sentinel); err != nil {
				var re *core.RemoteError
				if !errors.As(err, &re) {
					t.Errorf("noise get_copy: unexpected error type %T: %v", err, err)
					return
				}
				noiseErr.Add(1)
			} else {
				noiseOK.Add(1)
			}
		}
	}()

	// Mid-flight: sever the link, hold it down, restore.
	for attempted.Load() < producers*perProducer/4 {
		time.Sleep(time.Millisecond)
	}
	c.Sim.Sever("a", "b")
	time.Sleep(80 * time.Millisecond)
	c.Sim.Restore("a", "b")

	waitTimeout(t, "producers", &prodWG, 60*time.Second)
	close(noiseStop)
	waitTimeout(t, "noise", &noiseWG, 30*time.Second)

	// Producers are done: poison the consumers, then join them.
	if err := ctl.PutGo(jobs, poisonID); err != nil {
		t.Fatal(err)
	}
	if err := ctl.PutGo(alt1, poisonID); err != nil {
		t.Fatal(err)
	}
	waitTimeout(t, "consumers", &consWG, 30*time.Second)

	// Drain what nobody consumed (leftover memos, surviving poisons).
	for _, key := range []symbol.Key{jobs, alt1, alt2} {
		for {
			v, ok, err := ctl.GetSkip(key)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if id := asInt64(t, v); id != poisonID {
				cc.see(id)
			}
		}
	}

	// The audit. No lock needed: every worker has joined.
	produced := producers * perProducer
	if got := len(cc.acked) + len(cc.uncertain); got != produced {
		t.Fatalf("ledger covers %d ids, want %d", got, produced)
	}
	if len(cc.uncertain) == 0 {
		t.Log("warning: no put failed during the sever window; chaos window may be too gentle")
	}
	for id, n := range cc.seen {
		if n > 1 {
			t.Errorf("memo %d consumed %d times (duplicated)", id, n)
		}
		if !cc.acked[id] && !cc.uncertain[id] {
			t.Errorf("memo %d consumed but never produced", id)
		}
	}
	for id := range cc.acked {
		if cc.seen[id] != 1 {
			t.Errorf("acked memo %d consumed %d times, want exactly 1 (lost or duplicated)", id, cc.seen[id])
		}
	}
	if noiseOK.Load() == 0 {
		t.Error("remote get_copy noise never succeeded")
	}
	t.Logf("acked %d, uncertain %d (of those %d landed), noise ok/err %d/%d, node-a retries %d",
		len(cc.acked), len(cc.uncertain), countUncertainLanded(cc), noiseOK.Load(), noiseErr.Load(),
		nodeStat(t, c, "a"))
}

func countUncertainLanded(cc *chaosCounts) int {
	n := 0
	for id := range cc.uncertain {
		if cc.seen[id] > 0 {
			n++
		}
	}
	return n
}

func nodeStat(t *testing.T, c *Cluster, host string) int64 {
	t.Helper()
	n, ok := c.Node(host)
	if !ok {
		t.Fatalf("no node %s", host)
	}
	return n.Stats().Retried
}
