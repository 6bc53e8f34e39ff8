// Command benchmark is the repository's benchmark: four closed-loop
// workloads driven through core.Memo over loopback TCP against two real
// memoserverd processes started with their default flags, reported as
// slice-median end-to-end metrics, plus a traced run that measures each
// layer underneath. See README.md in this directory.
//
//	go run ./benchmark -workload jobjar_durable -seed 1            # end-to-end metrics
//	go run ./benchmark -workload jobjar_durable -seed 1 -trace 1   # per-layer metrics
//	go run ./benchmark -aa 5                                       # A/A repeatability check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the length of the timed
// window. It is a multiple of numSlices so slices are whole seconds.
const defaultSeconds = 18

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed for keys, payload bytes and the callers' folder choices")
	seconds := flag.Int("seconds", defaultSeconds, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "0: print the end-to-end metrics; 1: do the traced run and print the per-layer metrics")
	aa := flag.Int("aa", 0, "A/A mode: run every workload this many times in each of two alternating sets and compare them")
	flag.Parse()

	// Every exit path destroys the daemons and the work directory.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		destroyLive()
		os.Exit(130)
	}()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	bin, err := buildDaemon()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *aa > 0 {
		os.Exit(runAA(bin, *aa, *seed, *seconds))
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have %s\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runWorkload(runOptions{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: bin})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// printResult writes the human-readable report and then, as the last line
// of standard output, the one JSON object the driver reads. With -trace 0
// that object carries the end-to-end metrics, with -trace 1 the per-layer
// ones; everything else is context on the lines above it.
func printResult(res runResult) {
	ctx, _ := json.Marshal(struct {
		Workload string         `json:"workload"`
		Seed     uint64         `json:"seed"`
		Seconds  int            `json:"seconds"`
		Params   map[string]any `json:"params"`
		Env      environment    `json:"env"`
		Noisy    bool           `json:"noisy"`
		Before   canary         `json:"canary_before"`
		After    canary         `json:"canary_after"`
		SpanFile string         `json:"span_file,omitempty"`
	}{res.Workload, res.Seed, res.Seconds, res.Params, res.Env, res.Noisy, res.Before, res.After, res.SpanFile})
	fmt.Printf("run %s\n", ctx)
	fmt.Printf("ops_attempted %d\nops_failed %d\nlatency samples per slice (median) %d\n", res.Attempted, res.Failed, res.Samples)
	for _, p := range res.Problems {
		fmt.Printf("problem: %s\n", p)
	}
	for i, s := range res.Slices {
		fmt.Printf("slice %d: goodput %8.0f /s  p50 %9.1f us  p99 %9.1f us  cpu %7.2f ms/kop\n", i, s.goodput, s.p50US, s.p99US, s.cpuMSKop)
	}
	for _, m := range res.EndToEnd {
		fmt.Printf("%-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.PerLayer {
		fmt.Printf("%-32s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	final := res.EndToEnd
	if res.Trace {
		final = res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(final))
	for _, m := range final {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil { // a NaN or infinite metric: the run measured nothing usable
		fmt.Fprintln(os.Stderr, "benchmark: unusable metric:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
