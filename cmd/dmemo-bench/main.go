// Command dmemo-bench regenerates the paper's experiments (DESIGN.md §4,
// E1–E10), printing one table per experiment. The benchmark of the running
// system is `go run ./benchmark` (benchmark/README.md).
//
// Usage:
//
//	dmemo-bench                 # run everything at full scale
//	dmemo-bench -quick          # smaller workloads
//	dmemo-bench -exp E4         # one experiment
//	dmemo-bench -list           # list experiments
//	dmemo-bench -json out/      # also write one BENCH_E<n>.json per table
//
// With -json each experiment's table is additionally written as
// machine-readable JSON (BENCH_E<n>.json) under the given directory; the CI
// bench-tables step uploads these files as an artifact. The same directory
// also gets METRICS.txt, the process-wide metric registry after the run in
// the Prometheus text exposition /metrics serves — the counters and
// histograms the experiments themselves drove.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced workloads")
	exp := flag.String("exp", "", "run a single experiment by id (E1..E10)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonDir := flag.String("json", "", "also write each table as BENCH_E<n>.json under this directory")
	flag.Parse()

	if *list {
		for _, r := range bench.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}

	cfg := bench.Config{Quick: *quick}
	runners := bench.All()
	if *exp != "" {
		r, ok := bench.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "dmemo-bench: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		runners = []bench.Runner{r}
	}
	failed := false
	for _, r := range runners {
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmemo-bench: %s: %v\n", r.ID, err)
			failed = true
			continue
		}
		tbl.Fprint(os.Stdout)
		if *jsonDir != "" {
			path, err := tbl.WriteJSON(*jsonDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dmemo-bench: %s: write json: %v\n", r.ID, err)
				failed = true
				continue
			}
			fmt.Fprintf(os.Stderr, "dmemo-bench: wrote %s\n", path)
		}
	}
	if *jsonDir != "" {
		// Scrape the registry the experiments drove, in the exposition
		// /metrics serves: every rpc call, pooled buffer, redial, and fsync
		// above is in these counters, with what the run cost the allocator
		// and the collector beside them.
		obs.RegisterRuntime(obs.Default)
		path := filepath.Join(*jsonDir, "METRICS.txt")
		f, err := os.Create(path)
		if err == nil {
			err = obs.Default.WriteProm(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmemo-bench: write metrics snapshot: %v\n", err)
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "dmemo-bench: wrote %s\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}
