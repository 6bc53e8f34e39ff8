package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

// chaosADF: two hosts, every folder server on b, so all deposit traffic from
// a crosses the a—b link while consumers on b stay local.
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

// waitTimeout fails the test if the group does not finish in time — a hung
// goroutine is exactly the bug class these tests exist to catch.
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

// faultRow is one way the a—b path fails under the exactly-once workload.
type faultRow struct {
	// crash marks a fault that kills b's process. A crash row gives the
	// cluster a data dir, with a snapshot threshold small enough that the log
	// compacts mid-workload, and more retries to ride out the restart. A
	// sever row leaves b's process alone, so its local consumers can never
	// lose a take's response: it requires every consumer call to succeed or
	// be canceled, and zero uncertain takes, so every acked memo is consumed
	// exactly once. It also reads a sentinel across the link throughout:
	// every read must return, success or fast failure, and one must succeed.
	crash bool
	// fault breaks the path mid-workload and heals it.
	fault func(t *testing.T, c *Cluster)
}

// TestChaosSeverRestoreNoLossNoDup severs the a—b link mid-workload and
// restores it. Run under -race by the dedicated CI chaos step.
func TestChaosSeverRestoreNoLossNoDup(t *testing.T) {
	runExactlyOnce(t, faultRow{fault: func(t *testing.T, c *Cluster) {
		c.Sim.Sever("a", "b")
		time.Sleep(80 * time.Millisecond)
		c.Sim.Restore("a", "b")
	}})
}

// TestRecoveryCrashRestartExactlyOnce hard-crashes the folder-owning memo
// server mid-workload and reopens it from the same data directory.
// Maybe-delivered puts are transparently retried across the crash, and their
// dedup tokens are recovered from the WAL, so a retry can never
// double-deposit. The one loss the audit excuses is a take that committed in
// the instant before the crash while its response died with the process. Run
// under -race by the dedicated CI recovery step.
func TestRecoveryCrashRestartExactlyOnce(t *testing.T) {
	runExactlyOnce(t, faultRow{crash: true, fault: func(t *testing.T, c *Cluster) {
		if err := c.CrashNode("b"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		if _, err := c.RestartNode("b"); err != nil {
			t.Fatalf("restart: %v", err)
		}
	}})
}

// runExactlyOnce runs producers on a and consumers on b through row's fault,
// drains what nobody consumed, and audits the ledger: no memo consumed
// twice, none observed that no put may have deposited, no acked memo lost
// beyond what the uncertain takes explain, and every caller completes.
func runExactlyOnce(t *testing.T, row faultRow) {
	opts := Options{Resilience: rpc.Resilience{
		Heartbeat: 50 * time.Millisecond,
		Redial:    transport.Backoff{Min: 2 * time.Millisecond, Max: 30 * time.Millisecond},
		Retries:   2,
	}}
	if row.crash {
		opts.Resilience.Retries = 6
		opts.DataDir = t.TempDir()
		opts.Durable = durable.Config{SnapshotEvery: 200}
	}
	c := boot(t, chaosADF, opts)
	newMemo := func(host string) *core.Memo {
		m, err := c.NewMemo(host)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ctl := newMemo("b")
	jobs, alt1, alt2 := ctl.NamedKey("jobs"), ctl.NamedKey("alt1"), ctl.NamedKey("alt2")
	led := NewLedger()

	// Producers on a: unique values, mostly to jobs, every fifth to an alt
	// folder. Failed puts are booked and never blindly re-put — the
	// no-duplicate guarantee belongs to the system, not the workload.
	const producers, perProducer = 3, 120
	var attempted atomic.Int64
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		m := newMemo("a")
		prodWG.Add(1)
		go func() {
			defer prodWG.Done()
			for i := 0; i < perProducer; i++ {
				key := jobs
				switch i % 10 {
				case 3:
					key = alt1
				case 7:
					key = alt2
				}
				v := fmt.Sprintf("p%d-%d", p, i)
				attempted.Add(1)
				led.Put(v, m.Put(key, transferable.String(v)))
			}
		}()
	}

	// Consumers on b: blocking gets on jobs plus an AltTake over the alt
	// folders, until stop cancels them.
	stop := make(chan struct{})
	var consWG sync.WaitGroup
	consume := func(take func(m *core.Memo) (transferable.Value, error)) {
		m := newMemo("b")
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				v, err := take(m)
				s, _ := transferable.AsString(v)
				led.Take(s, true, err)
				if errors.Is(err, core.ErrCanceled) {
					return
				}
				if err != nil && !row.crash {
					t.Errorf("local consumer: %v", err)
					return
				}
				if err != nil {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		consume(func(m *core.Memo) (transferable.Value, error) { return m.GetCancel(jobs, stop) })
	}
	consume(func(m *core.Memo) (transferable.Value, error) {
		_, v, err := m.GetAltCancel(stop, alt1, alt2)
		return v, err
	})

	noiseStop := make(chan struct{})
	var noiseOK, noiseErr atomic.Int64
	var noiseWG sync.WaitGroup
	if !row.crash {
		sentinel := ctl.NamedKey("sentinel")
		if err := ctl.PutGo(sentinel, int64(7777)); err != nil {
			t.Fatal(err)
		}
		m := newMemo("a")
		noiseWG.Add(1)
		go func() {
			defer noiseWG.Done()
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
	}

	for attempted.Load() < producers*perProducer/4 {
		time.Sleep(time.Millisecond)
	}
	row.fault(t, c)

	waitTimeout(t, "producers", &prodWG, 60*time.Second)
	close(noiseStop)
	waitTimeout(t, "noise", &noiseWG, 30*time.Second)
	close(stop)
	waitTimeout(t, "consumers", &consWG, 30*time.Second)

	// Drain what nobody consumed through a fresh handle on b.
	drain := newMemo("b")
	for _, key := range []symbol.Key{jobs, alt1, alt2} {
		for {
			v, ok, err := drain.GetSkip(key)
			if err != nil {
				t.Fatalf("drain %v: %v", key, err)
			}
			s, _ := transferable.AsString(v)
			led.Take(s, ok, nil)
			if !ok {
				break
			}
		}
	}

	if err := led.Check(); err != nil {
		t.Error(err)
	}
	tally := led.Tally()
	if tally.Puts != producers*perProducer {
		t.Errorf("ledger booked %d puts, want %d", tally.Puts, producers*perProducer)
	}
	if !row.crash && tally.UncertainTakes != 0 {
		t.Errorf("%d uncertain takes; a local consumer must never lose a take's response", tally.UncertainTakes)
	}
	if !row.crash && noiseOK.Load() == 0 {
		t.Error("remote get_copy noise never succeeded")
	}
	na, _ := c.Node("a")
	nb, _ := c.Node("b")
	var dupPuts int64
	if srv, ok := nb.LocalFolderServer(c.File.App, 0); ok {
		dupPuts = srv.Store().Stats().DupPuts
	}
	t.Logf("%+v, noise ok/err %d/%d, node-a retries %d, dedup hits %d",
		tally, noiseOK.Load(), noiseErr.Load(), na.Stats().Retried, dupPuts)
	if tally.UncertainPuts+tally.Unsent == 0 && na.Stats().Retried == 0 {
		t.Log("warning: the workload never observed the fault; the fault window may be too gentle")
	}
}
