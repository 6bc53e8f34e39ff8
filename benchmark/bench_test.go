package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestSliceOf(t *testing.T) {
	const window = 9_000_000_000
	for _, c := range []struct {
		done int64
		want int
	}{
		{-1, -1}, {0, 0}, {999_999_999, 0}, {1_000_000_000, 1},
		{8_999_999_999, 8}, {window, -1}, {window + 5, -1},
	} {
		if got := sliceOf(c.done, window); got != c.want {
			t.Errorf("sliceOf(%d) = %d, want %d", c.done, got, c.want)
		}
	}
}

func TestCutSlicesAndSliceMedian(t *testing.T) {
	const window = 9_000_000_000
	// Slice i gets (i+1)*20 rounds from one caller and one more caller adds a
	// warm-up sample and a late sample, which must both be ignored.
	var a []sample
	for i := 0; i < numSlices; i++ {
		for r := 0; r < (i+1)*20; r++ {
			a = append(a, sample{doneNS: int64(i)*1_000_000_000 + int64(r), roundNS: int64(1000 * (i + 1))})
		}
	}
	b := []sample{{doneNS: -5, roundNS: 1}, {doneNS: window + 1, roundNS: 1}}
	sl := cutSlices([][]sample{a, b}, 0, window)
	for i, s := range sl {
		if s.rounds != (i+1)*20 || s.ops != (i+1)*40 {
			t.Errorf("slice %d: rounds %d ops %d, want %d %d", i, s.rounds, s.ops, (i+1)*20, (i+1)*40)
		}
		if want := float64((i+1)*40) / 1.0; s.goodput != want {
			t.Errorf("slice %d: goodput %v, want %v", i, s.goodput, want)
		}
		if want := float64(i + 1); s.p50US != want {
			t.Errorf("slice %d: p50 %v us, want %v", i, s.p50US, want)
		}
	}
	// The traced run's second window starts later: the same samples shifted by
	// its start must land in the same slices.
	const start = 4_500_000_000
	shifted := make([]sample, len(a))
	for i, x := range a {
		shifted[i] = sample{doneNS: x.doneNS + start, roundNS: x.roundNS}
	}
	if got := cutSlices([][]sample{shifted, a[:1]}, start, window); got != sl {
		t.Errorf("a window that starts at %d cut the shifted samples differently", start)
	}
	// Slice-median of 40,80,...,360 is 200: one wild slice cannot move it far.
	if got := sliceMedian(sl, func(s sliceStats) float64 { return s.goodput }); got != 200 {
		t.Errorf("slice-median goodput = %v, want 200", got)
	}
	sl[8].goodput = 1e9
	if got := sliceMedian(sl, func(s sliceStats) float64 { return s.goodput }); got != 200 {
		t.Errorf("slice-median with an outlier = %v, want 200", got)
	}
}

func TestResponderSamplesCountOpsButNoLatency(t *testing.T) {
	const window = 9_000_000_000
	var init, resp []sample
	for i := 0; i < 30; i++ {
		init = append(init, sample{doneNS: int64(i), roundNS: 500})
		resp = append(resp, sample{doneNS: int64(i)}) // roundNS 0: no latency of its own
	}
	sl := cutSlices([][]sample{init, resp}, 0, window)
	if sl[0].ops != 120 {
		t.Errorf("ops = %d, want 120 (both sides' operations count)", sl[0].ops)
	}
	if sl[0].p50US != 0.5 {
		t.Errorf("p50 = %v us, want 0.5 (only the initiator's rounds)", sl[0].p50US)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number someone might report")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileSampleFloor(t *testing.T) {
	seq := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty input reported a percentile")
	}
	// p99 of 1000 has exactly 10 samples beyond it; of 999 it has 9.
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %d ok=%v, want 990 true", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has fewer than 10 beyond it and must not be ok")
	}
	// The median needs ten samples on each side.
	if _, ok := percentile(seq(20), 0.5); ok {
		t.Error("median of 20 has only 9 below it and must not be ok")
	}
	if v, ok := percentile(seq(21), 0.5); !ok || v != 11 {
		t.Errorf("median of 21 = %d ok=%v, want 11 true", v, ok)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestLedger(t *testing.T) {
	vals := []string{"c0001s00000000000001xx", "c0001s00000000000002xx", "c0002s00000000000001xx"}
	balanced := func() ledger {
		var l ledger
		for _, v := range vals {
			l.put(v)
		}
		// Got in another order, by another caller: still balanced.
		for i := len(vals) - 1; i >= 0; i-- {
			l.got(vals[i])
		}
		return l
	}
	if msg := balanced().mismatch(); msg != "" {
		t.Errorf("balanced ledger: %s", msg)
	}

	lost := balanced()
	lost.gotN--
	lost.gotSum -= valueHash(vals[0])
	if lost.mismatch() == "" {
		t.Error("a lost value went undetected")
	}

	dup := balanced()
	dup.got(vals[1])
	if dup.mismatch() == "" {
		t.Error("a duplicated value went undetected")
	}

	// One value replaced by another: the counts still agree, the sums do not.
	var swapped ledger
	for _, v := range vals {
		swapped.put(v)
	}
	swapped.got(vals[0])
	swapped.got(vals[1])
	swapped.got("c0009s00000000000007xx")
	if swapped.putN != swapped.gotN {
		t.Fatal("test is wrong: counts should agree")
	}
	if swapped.mismatch() == "" {
		t.Error("a swapped value went undetected")
	}

	// Merging per-caller ledgers is what the run does.
	var a, b, total ledger
	a.put(vals[0])
	b.got(vals[0])
	total.merge(a)
	total.merge(b)
	if msg := total.mismatch(); msg != "" {
		t.Errorf("merged ledger: %s", msg)
	}
}

func TestValueGen(t *testing.T) {
	g := newValueGen(37, 64, newRNG(1, 1))
	v1, v2 := g.next(), g.next()
	if len(v1) != 64 || v1 == v2 {
		t.Fatalf("values %q %q", v1, v2)
	}
	if c, ok := valueCaller(v2); !ok || c != 37 {
		t.Errorf("caller = %d %v", c, ok)
	}
	if s, ok := valueSeq(v2); !ok || s != 2 {
		t.Errorf("seq = %d %v", s, ok)
	}
	if s, _ := valueSeq(g.at(stopSeq)); s != stopSeq {
		t.Errorf("stop sentinel does not round-trip: %d", s)
	}
	if v1[valueHeader:] != v2[valueHeader:] {
		t.Error("filler changed between values of one caller")
	}
	if newValueGen(37, 64, newRNG(2, 1)).next()[valueHeader:] == v1[valueHeader:] {
		t.Error("another seed produced the same filler")
	}
}

func TestKeyPickerPlacesEveryKey(t *testing.T) {
	_, place, err := benchPlacement()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, wl := range workloads {
			keys := pickKeys(place, newRNG(seed, 1), hostNames[wl.keysOn], workloadSymBase, wl.keyCount())
			want := "a"
			if wl.name == "forward_mem" {
				want = "b"
			}
			seen := map[string]bool{}
			for _, k := range keys {
				if got := place.Place(k).Host; got != want {
					t.Fatalf("seed %d %s: key %v places on %s, want %s", seed, wl.name, k, got, want)
				}
				if seen[k.Canon()] {
					t.Fatalf("seed %d %s: duplicate key %v", seed, wl.name, k)
				}
				seen[k.Canon()] = true
			}
			if wl.pingpong && len(keys) != wl.callers {
				t.Errorf("%s: %d keys for %d callers; each pair needs a ping and a pong key", wl.name, len(keys), wl.callers)
			}
		}
		backlog := pickKeys(place, newRNG(seed, 2), "a", backlogSymBase, backlogFolders)
		for _, k := range backlog {
			if place.Place(k).Host != "a" {
				t.Fatalf("seed %d: backlog key %v is not on a", seed, k)
			}
			if uint64(k.S) < backlogSymBase {
				t.Fatalf("backlog key %v is in the workloads' symbol range", k)
			}
		}
	}
	// Same seed, same keys; another seed, other keys.
	k1 := pickKeys(place, newRNG(7, 1), "a", workloadSymBase, 16)
	k2 := pickKeys(place, newRNG(7, 1), "a", workloadSymBase, 16)
	k3 := pickKeys(place, newRNG(8, 1), "a", workloadSymBase, 16)
	same := true
	for i := range k1 {
		if !k1[i].Equal(k2[i]) {
			t.Fatal("the same seed picked different keys")
		}
		same = same && k1[i].Equal(k3[i])
	}
	if same {
		t.Error("another seed picked the same keys")
	}
}

const metricsText = `# HELP rpc_frames_total batch frames shipped (both directions)
# TYPE rpc_frames_total counter
rpc_frames_total 120
# TYPE durable_fsync_ns histogram
durable_fsync_ns_bucket{le="1024"} 3
durable_fsync_ns_bucket{le="+Inf"} 7
durable_fsync_ns_sum 7000
durable_fsync_ns_count 7
pool_gets_total{class="64"} 10
pool_gets_total{class="128"} 5
folder_memos{folder_server="0"} 20000
folder_shard_waiters{folder_server="0",shard="3"} 2
folder_shard_waiters{folder_server="0",shard="4"} 1
`

func TestParseMetricsAndDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(metricsText))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"rpc_frames_total": 120, "durable_fsync_ns_sum": 7000, "durable_fsync_ns_count": 7,
		"pool_gets_total": 15, "folder_memos": 20000, "folder_shard_waiters": 3,
	} {
		if before[name] != want {
			t.Errorf("%s = %v, want %v", name, before[name], want)
		}
	}
	if _, ok := before["durable_fsync_ns_bucket"]; ok {
		t.Error("histogram buckets must be dropped, or a sum over labels double-counts")
	}
	after, err := parseMetrics(strings.NewReader(strings.ReplaceAll(metricsText, "rpc_frames_total 120", "rpc_frames_total 170")))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["rpc_frames_total"] != 50 || d["pool_gets_total"] != 0 {
		t.Errorf("delta = %v", d)
	}
	if sum := before.add(after); sum["rpc_frames_total"] != 290 {
		t.Errorf("add = %v", sum["rpc_frames_total"])
	}
	if _, err := parseMetrics(strings.NewReader("rpc_frames_total notanumber\n")); err == nil {
		t.Error("a malformed value must be an error, not a silent zero")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds spaces and a ')': fields count from the last ')'.
	line := "4242 (memo server) d) S 1 4242 4242 0 -1 4194304 500 0 0 0 1234 567 0 0 20 0 9 0 100 200 300"
	u, s, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if u != 12340 || s != 5670 {
		t.Errorf("user %v ms sys %v ms, want 12340 5670", u, s)
	}
	if _, _, err := parseProcStat("garbage"); err == nil {
		t.Error("garbage parsed")
	}
}

func TestNoisyFlag(t *testing.T) {
	quiet := canary{SpinMS: 200, EchoRTTUS: 10}
	if noisyRun(quiet, canary{SpinMS: 205, EchoRTTUS: 10.5}, 12) {
		t.Error("5 % drift and 12 % slice spread is not noisy")
	}
	if !noisyRun(quiet, canary{SpinMS: 230, EchoRTTUS: 10}, 12) {
		t.Error("15 % spin drift must mark the run noisy")
	}
	if !noisyRun(quiet, quiet, 30) {
		t.Error("30 % slice spread must mark the run noisy")
	}
}

func TestRoundTraceNesting(t *testing.T) {
	var nilRec *roundTrace
	nilRec.end(nilRec.begin("x")) // a round that is not kept records nothing and must not crash

	c := &caller{}
	rec := &roundTrace{c: c, req: 9}
	root := rec.begin("round")
	put := rec.begin("put")
	do := rec.begin("client.do")
	rec.end(do)
	rec.end(put)
	get := rec.begin("get")
	rec.begin("client.do") // left open by an error path
	rec.end(get)
	rec.end(root)
	want := []struct{ name, parent string }{
		{"round", ""}, {"put", "round"}, {"client.do", "put"}, {"get", "round"}, {"client.do", "get"},
	}
	if len(c.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(c.spans), len(want))
	}
	for i, w := range want {
		s := c.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Req != 9 {
			t.Errorf("span %d = %+v, want %s under %q", i, s, w.name, w.parent)
		}
		if s.EndNS < s.StartNS || s.EndNS == 0 {
			t.Errorf("span %d (%s) was not closed", i, s.Name)
		}
	}
	if v, n := medianSpanNS(c.spans, "client.do"); n != 2 || v < 0 {
		t.Errorf("medianSpanNS = %v over %d", v, n)
	}
}

// TestBenchmarkJSONMatchesCode keeps the declaration the driver reads and
// the tables the program prints from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, code has %q (or the why differs)", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	check := func(kind string, declared []decl, table []metricSpec, bounded bool) {
		if len(declared) != len(table) {
			t.Errorf("%s: %d declared, %d in code", kind, len(declared), len(table))
			return
		}
		for i, spec := range table {
			d := declared[i]
			if d.Name != spec.name || d.Unit != spec.unit || d.Better != better(spec.higher) {
				t.Errorf("%s %d: declared %+v, code has %+v", kind, i, d, spec)
			}
			if bounded && (d.Bound == nil || *d.Bound != spec.bound) {
				t.Errorf("%s %s: declared bound %v, code has %v", kind, spec.name, d.Bound, spec.bound)
			}
			if !bounded && d.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, spec.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestCheckAgainst(t *testing.T) {
	got := []metric{{"goodput_ops_s", "1/s", 1}, {"round_p50_us", "ms", 1}, {"cpu_ms_per_kop", "ms/kop", 1}, {"extra", "s", 1}}
	problems := strings.Join(checkAgainst(endToEnd, got), "\n")
	for _, want := range []string{"setup_s was not measured", `round_p50_us has unit "ms"`, "extra is not declared"} {
		if !strings.Contains(problems, want) {
			t.Errorf("missing %q in:\n%s", want, problems)
		}
	}
}

// TestSmoke drives every workload for one second against the real daemons,
// untraced and traced. It builds and starts processes, so it runs only when
// asked for: BENCH_SMOKE=1 go test ./benchmark
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 to run the real-daemon smoke test")
	}
	bin, err := buildDaemon()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			seconds := 1
			if trace {
				seconds = 2 // one second per half
			}
			res, err := runWorkload(runOptions{wl: wl, seed: 1, seconds: seconds, trace: trace, bin: bin})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d: %v", wl.name, trace, res.Attempted, res.Failed, res.Problems)
			}
			if missing := checkAgainst(map[bool][]metricSpec{false: endToEnd, true: perLayer}[trace],
				map[bool][]metric{false: res.EndToEnd, true: res.PerLayer}[trace]); len(missing) > 0 {
				t.Errorf("%s trace=%v: %v", wl.name, trace, missing)
			}
		}
	}
}
