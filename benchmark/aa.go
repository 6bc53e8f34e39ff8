package main

import (
	"fmt"
	"math"
	"os"
)

// runAA runs every workload k times in each of two sets, alternating which
// set goes first, and reports per metric and workload both sets' medians and
// quartiles, each set's spread (interquartile range over median) and whether
// the second median is within the bound of the first. Both sets run the same
// code, so any disagreement is the benchmark's own noise. It returns the
// process exit code: 0 when every pairing agrees and no operation failed.
func runAA(bin string, k int, seed uint64, seconds int) int {
	type cell struct{ sets [2][]float64 }
	values := map[string]*cell{} // "workload/metric"
	failed := 0
	for rep := 0; rep < k; rep++ {
		for turn := 0; turn < 2; turn++ {
			set := (rep + turn) % 2
			for _, wl := range workloads {
				o := runOptions{wl: wl, seed: seed + uint64(2*rep+set), seconds: seconds, bin: bin}
				res, err := runWorkload(o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
					return 1
				}
				failed += res.Failed
				fmt.Printf("rep %d set %c %-15s seed %d failed %d noisy %v", rep, 'A'+set, wl.name, o.seed, res.Failed, res.Noisy)
				for _, m := range res.EndToEnd {
					key := wl.name + "/" + m.Name
					if values[key] == nil {
						values[key] = &cell{}
					}
					values[key].sets[set] = append(values[key].sets[set], m.Value)
					fmt.Printf("  %s %.4f", m.Name, m.Value)
				}
				fmt.Println()
				for _, p := range res.Problems {
					fmt.Printf("  problem: %s\n", p)
				}
			}
		}
	}

	fmt.Printf("\n%-15s %-15s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s %s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "A.iqr%", "B.q1", "B.median", "B.q3", "B.iqr%", "B-vs-A%", "bound%", "verdict")
	allAgree := true
	for _, wl := range workloads {
		for _, m := range endToEnd {
			c := values[wl.name+"/"+m.name]
			a1, a2, a3 := quartiles(c.sets[0])
			b1, b2, b3 := quartiles(c.sets[1])
			worse := (b2 - a2) / a2 // positive = B worse, for lower-is-better
			if m.higher {
				worse = -worse
			}
			verdict := "agree"
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			if worse > m.bound || math.IsNaN(worse) {
				verdict = "DISAGREE"
				allAgree = false
			} else if m.name != "setup_s" && math.Max(spreadA, spreadB) > m.bound {
				verdict = "SPREAD>BOUND"
				allAgree = false
			}
			fmt.Printf("%-15s %-15s %12.3f %12.3f %12.3f %8.2f | %12.3f %12.3f %12.3f %8.2f | %+8.2f %6.0f %s\n",
				wl.name, m.name, a1, a2, a3, spreadA*100, b1, b2, b3, spreadB*100, worse*100, m.bound*100, verdict)
		}
	}
	fmt.Printf("\nops_failed over all runs: %d\n", failed)
	if !allAgree || failed > 0 {
		return 1
	}
	return 0
}
