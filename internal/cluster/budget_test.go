package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/transferable"
)

// budgetSeries are the counters a round's budget pins: one row each, the
// sum of the named series over both nodes and the process-wide registry.
var budgetSeries = []struct {
	name   string
	series []string
}{
	{"server requests", []string{"rpc_server_requests_total"}},
	{"forwards", []string{"node_forwards_total"}},
	{"WAL appends", []string{"durable_appends_total"}},
	{"thread-cache runs", []string{"threadcache_spawned_total", "threadcache_reused_total"}},
	{"folder puts", []string{"folder_puts_total"}},
	{"folder takes", []string{"folder_takes_total"}},
	{"folder alt scans", []string{"folder_alt_scans_total"}},
}

// TestRoundCountBudgets pins what one round of each basic shape costs in
// counts, as the alloc budgets pin its allocations: a put+get entered at the
// owning host, the same forwarded a→b, a get that parks at the owner and is
// filled by the put that follows, and a put+get on a durable folder (its log
// never fsynced). Each count is read from the nodes' /metrics series and the
// process-wide registry through obs.ParseText, as per-round deltas over a
// fixed number of rounds after one warm-up round, and must be exact. No
// folder op takes a thread on any store; only forwarding adds requests.
func TestRoundCountBudgets(t *testing.T) {
	const rounds = 50
	for _, shape := range []struct {
		name    string
		host    string // where the caller enters; the folder is on b
		durable bool
		park    bool
		want    []float64 // per round, in budgetSeries order
	}{
		{"local", "b", false, false, []float64{2, 0, 0, 0, 1, 1, 0}},
		{"forwarded", "a", false, false, []float64{4, 2, 0, 0, 1, 1, 0}},
		{"parked", "b", false, true, []float64{2, 0, 0, 0, 1, 1, 0}},
		{"durable", "b", true, false, []float64{2, 0, 2, 0, 1, 1, 0}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			var opts Options
			if shape.durable {
				opts.DataDir = t.TempDir()
				opts.Durable = durable.Config{Sync: durable.SyncNever}
			}
			c := boot(t, splitADF, opts)
			m, err := c.NewMemo(shape.host)
			if err != nil {
				t.Fatal(err)
			}
			k := m.NamedKey("budget")
			round := func(i int) {
				v := transferable.Int64(int64(i))
				if !shape.park {
					if err := m.Put(k, v); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Get(k); err != nil {
						t.Fatal(err)
					}
					return
				}
				got := make(chan error, 1)
				go func() {
					_, err := m.Get(k)
					got <- err
				}()
				for deadline := time.Now().Add(10 * time.Second); budgetCounts(t, c)["folder_waiters"] != 1; {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: the get never parked", i)
					}
					time.Sleep(100 * time.Microsecond)
				}
				if err := m.Put(k, v); err != nil {
					t.Fatal(err)
				}
				if err := <-got; err != nil {
					t.Fatal(err)
				}
			}
			round(-1) // dials the peer link and starts the conns' read loops
			before := budgetCounts(t, c)
			for i := 0; i < rounds; i++ {
				round(i)
			}
			after := budgetCounts(t, c)
			for i, row := range budgetSeries {
				var d float64
				for _, name := range row.series {
					d += after[name] - before[name]
				}
				if got := d / rounds; got != shape.want[i] {
					t.Errorf("%s per round = %v, budget %v", row.name, got, shape.want[i])
				}
			}
		})
	}
}

// budgetCounts sums every series of both nodes and of the process-wide
// registry by name.
func budgetCounts(t *testing.T, c *Cluster) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	var b bytes.Buffer
	if err := obs.Default.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&b)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b"} {
		node, err := c.Samples(h)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, node...)
	}
	for _, smp := range samples {
		out[smp.Name] += smp.Value
	}
	return out
}
