package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

const (
	// warmup is the part of the load, before the timed window opens, whose
	// samples are discarded: connections are dialed, pools are filled, the
	// daemons' goroutine caches are warm.
	warmup = 5 * time.Second
	// setupRepeats is how many times an untraced run sets the cluster up;
	// setup_s is the median, the last set-up is the one the load runs on.
	setupRepeats = 3
	// runDeadline bounds one whole run, set-up to teardown.
	runDeadline = 150 * time.Second
)

// runOptions is everything one run depends on.
type runOptions struct {
	wl      workload
	seed    uint64
	seconds int
	trace   bool
	bin     string // built memoserverd
}

// metric is one named result.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// runResult is what one run found.
type runResult struct {
	Workload  string
	Seed      uint64
	Seconds   int
	Trace     bool
	Params    map[string]any
	Env       environment
	Attempted int
	Failed    int
	Correct   bool
	Noisy     bool
	Problems  []string
	Samples   int // latency samples per slice, median over the slices
	Slices    []sliceStats
	Before    canary
	After     canary
	EndToEnd  []metric
	PerLayer  []metric
	SpanFile  string
}

// live tracks what must be destroyed on every exit path: the daemons and
// the work directory of the run in progress.
var live struct {
	sync.Mutex
	cluster *cluster
	dir     string
}

func setLive(c *cluster, dir string) {
	live.Lock()
	live.cluster, live.dir = c, dir
	live.Unlock()
}

// destroyLive kills the running daemons and removes the work directory. It
// is called by the normal path, the deadline watchdog and the signal
// handler alike.
func destroyLive() {
	live.Lock()
	defer live.Unlock()
	if live.cluster != nil {
		live.cluster.abort()
		live.cluster = nil
	}
	if live.dir != "" {
		_ = os.RemoveAll(live.dir)
		live.dir = ""
	}
}

// setupPhases is where one set-up spent its time.
type setupPhases struct {
	bootMS, preloadMS, restartMS, dialMS float64
	total                                time.Duration
}

// loadConns is how many connections the loadgen spreads its callers over.
func loadConns() int { return min(runtime.NumCPU(), 2) }

// setUpOnce boots the cluster in dir, preloads the backlog, restarts node a when
// the workload is durable, and dials the loadgen's connections. The time it
// takes, first daemon spawn to connections dialed, is one reading of
// setup_s.
func setUpOnce(o runOptions, dir string) (*cluster, []handle, setupPhases, error) {
	var ph setupPhases
	start := time.Now()
	c, err := bootCluster(o.bin, dir, o.wl.durable)
	if err != nil {
		return nil, nil, ph, err
	}
	setLive(c, dir)
	ph.bootMS = msSince(start)

	t := time.Now()
	if err := preload(c, o.seed); err != nil {
		return c, nil, ph, fmt.Errorf("preload: %w", err)
	}
	ph.preloadMS = msSince(t)

	if o.wl.durable {
		t = time.Now()
		if err := c.restart(0); err != nil {
			return c, nil, ph, fmt.Errorf("restart: %w", err)
		}
		ph.restartMS = msSince(t)
	}
	if err := c.checkBacklog(); err != nil {
		return c, nil, ph, err
	}

	t = time.Now()
	handles := make([]handle, loadConns())
	for i := range handles {
		if handles[i], err = c.memo(0); err != nil {
			closeHandles(handles)
			return c, nil, ph, fmt.Errorf("dial: %w", err)
		}
	}
	ph.dialMS = msSince(t)
	ph.total = time.Since(start)
	return c, handles, ph, nil
}

func closeHandles(hs []handle) {
	for _, h := range hs {
		if h.m != nil {
			_ = h.m.Close()
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// preload deposits the backlog through the client library, count-based: a
// fixed number of memos, however long that takes.
func preload(c *cluster, seed uint64) error {
	keys := pickKeys(c.place, newRNG(seed, 2), "a", backlogSymBase, backlogFolders)
	const workers = 32
	conns := loadConns()
	handles := make([]handle, conns)
	for i := range handles {
		var err error
		if handles[i], err = c.memo(0); err != nil {
			closeHandles(handles)
			return err
		}
	}
	defer closeHandles(handles)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := handles[w%conns].m
			gen := newValueGen(9000+w, backlogPayload, newRNG(seed, uint64(100+w)))
			for i := w; i < backlogMemos; i += workers {
				if err := m.Put(keys[i%len(keys)], transferable.String(gen.next())); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkBacklog requires the folder servers to hold exactly the backlog.
func (c *cluster) checkBacklog() error {
	sum, err := c.scrapeAll()
	if err != nil {
		return err
	}
	if got := int(sum["folder_memos"]); got != backlogMemos {
		return fmt.Errorf("folder_memos = %d, want the backlog of %d", got, backlogMemos)
	}
	return nil
}

// cpuSample is the two daemons' CPU use so far, at one instant.
type cpuSample struct {
	daemonUserMS, daemonSysMS float64
}

func (c *cluster) sampleCPU() (cpuSample, error) {
	var s cpuSample
	for _, d := range c.nodes {
		u, sy, err := procCPU(d.pid())
		if err != nil {
			return s, err
		}
		s.daemonUserMS += u
		s.daemonSysMS += sy
	}
	return s, nil
}

// window is one timed interval of the load, relative to the callers' origin.
type window struct {
	startNS, lenNS int64
	cpu            [numSlices + 1]cpuSample // on the slice boundaries
	slices         [numSlices]sliceStats
}

// sampleBoundaries sleeps to each slice boundary of w and reads CPU there.
func (w *window) sampleBoundaries(c *cluster, origin time.Time) error {
	for i := 0; i <= numSlices; i++ {
		at := origin.Add(time.Duration(w.startNS + w.lenNS*int64(i)/numSlices))
		time.Sleep(time.Until(at))
		s, err := c.sampleCPU()
		if err != nil {
			return err
		}
		w.cpu[i] = s
	}
	return nil
}

// cut computes the per-slice statistics from the callers' samples.
func (w *window) cut(samples [][]sample) {
	w.slices = cutSlices(samples, w.startNS, w.lenNS)
	for i := range w.slices {
		cpu := (w.cpu[i+1].daemonUserMS + w.cpu[i+1].daemonSysMS) - (w.cpu[i].daemonUserMS + w.cpu[i].daemonSysMS)
		if w.slices[i].ops > 0 {
			w.slices[i].cpuMSKop = cpu / float64(w.slices[i].ops) * 1000
		}
	}
}

func (w *window) ops() int {
	n := 0
	for _, s := range w.slices {
		n += s.ops
	}
	return n
}

func (w *window) goodput() float64 {
	return sliceMedian(w.slices, func(s sliceStats) float64 { return s.goodput })
}

// buildCallers creates the workload's callers over the given connections.
// Every random choice descends from the seed.
func buildCallers(o runOptions, c *cluster, handles []handle, origin time.Time, stop, traced *atomic.Bool) ([]*caller, []symbol.Key) {
	wl := o.wl
	keys := pickKeys(c.place, newRNG(o.seed, 1), hostNames[wl.keysOn], workloadSymBase, wl.keyCount())
	callers := make([]*caller, wl.callers)
	for i := range callers {
		h := handles[i%len(handles)]
		rng := newRNG(o.seed, uint64(1000+i))
		callers[i] = &caller{
			id: i, m: h.m, client: h.client, place: c.place, keys: keys,
			rng: rng, gen: newValueGen(i, wl.payload, rng), payload: wl.payload,
			t0: origin, stop: stop, traced: traced,
			samples: make([]sample, 0, 1<<16),
		}
	}
	return callers, keys
}

// startCallers launches every caller and returns a channel closed when all
// have returned.
func startCallers(wl workload, callers []*caller, keys []symbol.Key) <-chan struct{} {
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		switch {
		case !wl.pingpong:
			go func() { defer wg.Done(); c.runRounds() }()
		case i%2 == 0:
			c.partner = i + 1
			go func() { defer wg.Done(); c.runInitiator(keys[i], keys[i+1]) }()
		default:
			c.partner = i - 1
			go func() { defer wg.Done(); c.runResponder(keys[i-1], keys[i]) }()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	return done
}

// drain takes whatever the callers left in the workload's folders and adds
// it to the ledger, so that a memo stranded by a failed Get is told apart
// from a memo the system lost.
func drain(m *core.Memo, keys []symbol.Key, led *ledger) (int, error) {
	n := 0
	for _, k := range keys {
		for {
			v, ok, err := m.GetSkip(k)
			if err != nil {
				return n, fmt.Errorf("drain: %w", err)
			}
			if !ok {
				break
			}
			if s, isStr := transferable.AsString(v); isStr {
				led.got(s)
			} else {
				led.gotN++
			}
			n++
		}
	}
	return n, nil
}

// run is one run in progress.
type run struct {
	o   runOptions
	res runResult

	c       *cluster
	handles []handle
	phases  []setupPhases // one per set-up

	spans  spanLog
	ladder []metric

	callers []*caller
	keys    []symbol.Key
	wins    []*window       // one timed window, or two halves when tracing
	counts  *boundaryCounts // over the traced half
	final   metricSet       // the daemons' /metrics after the drain
}

func (r *run) problem(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

// runWorkload performs one complete run: canary, set-up(s), load, drain,
// verify, teardown, canary, report. It never panics on a failed operation;
// every failure is counted and named in the result. The returned error is
// for what kept the run from happening at all.
func runWorkload(o runOptions) (runResult, error) {
	r := &run{o: o, res: runResult{
		Workload: o.wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Params: map[string]any{
			"callers": o.wl.callers, "payload_bytes": o.wl.payload, "folders": o.wl.folders,
			"keys_on": hostNames[o.wl.keysOn], "durable": o.wl.durable, "pingpong": o.wl.pingpong,
			"connections": loadConns(), "warmup_s": warmup.Seconds(), "slices": numSlices,
			"backlog_memos": backlogMemos, "backlog_folders": backlogFolders,
			"daemon_fsync": daemonSync.String(),
		},
	}}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v deadline; killing daemons\n", o.wl.name, runDeadline)
		live.Lock()
		c := live.cluster
		live.Unlock()
		if c != nil {
			fmt.Fprint(os.Stderr, c.logs())
		}
		destroyLive()
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer destroyLive()

	var err error
	if r.res.Before, err = readCanary(); err != nil {
		return r.res, fmt.Errorf("canary: %w", err)
	}
	if err := r.setUp(); err != nil {
		return r.res, err
	}
	defer closeHandles(r.handles)
	if o.trace {
		if r.ladder, err = runLadder(o, r.c, &r.spans); err != nil {
			return r.res, fmt.Errorf("ladder: %w\n%s", err, r.c.logs())
		}
	}
	r.load()
	r.verify()
	closeHandles(r.handles)
	if err := r.c.shutdown(); err != nil {
		r.problem("%v", err)
		r.res.Failed++
	}
	if len(r.res.Problems) > 0 {
		r.problem("%s", r.c.logs())
	}
	destroyLive()
	if r.res.After, err = readCanary(); err != nil {
		return r.res, fmt.Errorf("canary: %w", err)
	}
	return r.res, r.report()
}

// setUp sets the cluster up. An untraced run does it several times and
// reports the median, because a single set-up is short enough for one stall
// to dominate it; the load runs on the last.
func (r *run) setUp() error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	base, err := filepath.Abs(buildDir)
	if err != nil {
		return err
	}
	repeats := setupRepeats
	if r.o.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		dir, err := os.MkdirTemp(base, "work-")
		if err != nil {
			return err
		}
		if i == 0 {
			r.res.Env = describeEnvironment(dir)
		}
		var ph setupPhases
		r.c, r.handles, ph, err = setUpOnce(r.o, dir)
		if err != nil {
			if r.c != nil {
				err = fmt.Errorf("%w\n%s", err, r.c.logs())
			}
			return err
		}
		r.phases = append(r.phases, ph)
		if i < repeats-1 {
			closeHandles(r.handles)
			if err := r.c.shutdown(); err != nil {
				return err
			}
			destroyLive()
		}
	}
	return nil
}

// load runs the callers through the warm-up and the timed window(s) and
// stops them. The untraced run has one window; the traced run has two of
// half the length each, the second with client-side spans on, so that the
// tracing overhead is measured within one process lifetime.
func (r *run) load() {
	var stop, traced atomic.Bool
	origin := time.Now().Add(warmup)
	r.callers, r.keys = buildCallers(r.o, r.c, r.handles, origin, &stop, &traced)
	total := (time.Duration(r.o.seconds) * time.Second).Nanoseconds()
	r.wins = []*window{{lenNS: total}}
	if r.o.trace {
		r.wins = []*window{{lenNS: total / 2}, {startNS: total / 2, lenNS: total / 2}}
	}
	done := startCallers(r.o.wl, r.callers, r.keys)
	for i, w := range r.wins {
		if i == 1 {
			time.Sleep(time.Until(origin.Add(time.Duration(w.startNS))))
			traced.Store(true)
			r.counts = &boundaryCounts{c: r.c, callers: r.callers}
			if err := r.counts.open(); err != nil {
				r.problem("%v", err)
			}
			r.counts.sampleMid(origin.Add(time.Duration(w.startNS + w.lenNS/2)))
		}
		if err := w.sampleBoundaries(r.c, origin); err != nil {
			r.problem("cpu sampling: %v", err)
		}
	}
	if r.counts != nil {
		if err := r.counts.close(); err != nil {
			r.problem("%v", err)
		}
	}
	stop.Store(true)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		r.problem("callers did not stop within 20 s of the window closing")
		r.res.Failed++
		r.c.abort() // fails every blocked call, so the callers return
		<-done
	}
}

// verify is the correctness oracle: it merges the callers' ledgers, drains
// what they left, and checks the ledger and the daemons' own counters.
func (r *run) verify() {
	res := &r.res
	var led ledger
	for _, cl := range r.callers {
		led.merge(cl.led)
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		if cl.firstErr != nil {
			r.problem("caller %d: %d failed, first: %v", cl.id, cl.failed, cl.firstErr)
		}
		r.spans.spans = append(r.spans.spans, cl.spans...)
	}
	drained, err := drain(r.handles[0].m, r.keys, &led)
	if err != nil {
		r.problem("%v", err)
		res.Failed++
	}
	if drained > 0 && res.Failed == 0 {
		// Every caller finishes its round before it stops, so with no
		// failed operation nothing may be left behind.
		r.problem("%d memos left in the workload's folders", drained)
		res.Failed += drained
	}
	if msg := led.mismatch(); msg != "" {
		r.problem("%s", msg)
		res.Failed += max(1, absDiff(led.putN, led.gotN))
	}
	if r.final, err = r.c.scrapeAll(); err != nil {
		r.problem("%v", err)
		res.Failed++
		return
	}
	if got := int(r.final["folder_memos"]); got != backlogMemos {
		r.problem("folder_memos = %d after drain, want the backlog of %d", got, backlogMemos)
		res.Failed += max(1, absDiff(uint64(got), backlogMemos))
	}
	for _, name := range []string{"folder_dup_puts_total", "folder_dup_takes_total"} {
		if n := int(r.final[name]); n != 0 {
			r.problem("%s = %d, want 0 (no link failed)", name, n)
			res.Failed += n
		}
	}
}

// report turns the samples into the run's metrics.
func (r *run) report() error {
	res := &r.res
	samples := make([][]sample, len(r.callers))
	for i, cl := range r.callers {
		samples[i] = cl.samples
	}
	for _, w := range r.wins {
		w.cut(samples)
	}
	main := r.wins[0]
	res.Slices = main.slices[:]
	spread := sliceSpreadPct(main.slices)
	res.Noisy = noisyRun(res.Before, res.After, spread)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	med := func(f func(sliceStats) float64) float64 { return sliceMedian(main.slices, f) }
	res.Samples = int(med(func(s sliceStats) float64 { return float64(s.latN) }))
	for _, s := range main.slices {
		if !s.p50OK {
			r.problem("a slice has too few samples for its median latency")
			res.Correct = false
			break
		}
	}
	setupS := make([]float64, len(r.phases))
	for i, ph := range r.phases {
		setupS[i] = ph.total.Seconds()
	}
	last := r.phases[len(r.phases)-1]
	context := []metric{
		{"loadgen.round_p99_us", "us", med(func(s sliceStats) float64 { return s.p99US })},
		{"loadgen.slice_spread_pct", "%", spread},
		{"setup.boot_ms", "ms", last.bootMS},
		{"setup.preload_ms", "ms", last.preloadMS},
		{"setup.restart_replay_ms", "ms", last.restartMS},
		{"host.spin_ms", "ms", (res.Before.SpinMS + res.After.SpinMS) / 2},
		{"host.echo_rtt_us", "us", (res.Before.EchoRTTUS + res.After.EchoRTTUS) / 2},
		{"host.idle_echo_rtt_us", "us", (res.Before.IdleEchoRTTUS + res.After.IdleEchoRTTUS) / 2},
	}
	var undeclared []string
	if !r.o.trace {
		res.EndToEnd = []metric{
			{"goodput_ops_s", "1/s", main.goodput()},
			{"round_p50_us", "us", med(func(s sliceStats) float64 { return s.p50US })},
			{"cpu_ms_per_kop", "ms/kop", med(func(s sliceStats) float64 { return s.cpuMSKop })},
			{"setup_s", "s", median(setupS)},
		}
		res.PerLayer = context // for the reader; the result line carries only the end-to-end metrics
		undeclared = checkAgainst(endToEnd, res.EndToEnd)
	} else {
		tw := r.wins[1]
		res.PerLayer = append(res.PerLayer, r.ladder...)
		res.PerLayer = append(res.PerLayer, clientSpanMetrics(r.spans.spans)...)
		res.PerLayer = append(res.PerLayer,
			metric{"trace.overhead_pct", "%", (main.goodput() - tw.goodput()) / main.goodput() * 100})
		res.PerLayer = append(res.PerLayer, r.counts.metrics(tw.ops(), r.final)...)
		res.PerLayer = append(res.PerLayer, context...)
		undeclared = checkAgainst(perLayer, res.PerLayer)
		res.SpanFile = filepath.Join(buildDir, "trace-"+r.o.wl.name+".json")
		if err := r.spans.write(res.SpanFile); err != nil {
			return err
		}
	}
	if len(undeclared) > 0 {
		res.Problems = append(res.Problems, undeclared...)
		res.Correct = false
	}
	return nil
}

func absDiff(a, b uint64) int {
	if a > b {
		return int(a - b)
	}
	return int(b - a)
}
