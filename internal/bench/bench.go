// Package bench is the experiment harness: one function per experiment in
// DESIGN.md §4 (E1–E10), each returning a printable table reproducing a
// figure or claim of the paper. cmd/dmemo-bench drives them from the command
// line. Numbers for this reproduction's own layers (batching, link
// resilience, allocation, tracing overhead) are not here: the benchmark of
// the running system is benchmark/, and the alloc budgets are tier-1 tests.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// tableJSON is the machine-readable shape of a Table (bench-tables/ holds
// one committed set; CI uploads a fresh one as an artifact).
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Where the numbers came from: a table is not comparable with another
	// measured on different cores or a different commit.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
}

// sourceCommit names the source the tables are measured on: the revision
// stamped into the binary (go build), else what git says of the working
// directory (go run stamps nothing), else "unknown". A "dirty" suffix marks
// uncommitted changes.
func sourceCommit() string {
	rev, dirty := "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	if rev != "" {
		return rev + dirty
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteJSON writes the table as BENCH_<ID>.json under dir (created if
// needed), one file per experiment, and returns the file path.
func (t *Table) WriteJSON(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.MarshalIndent(tableJSON{
		ID: t.ID, Title: t.Title, Claim: t.Claim,
		Columns: t.Columns, Rows: t.Rows, Notes: t.Notes,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: sourceCommit(),
	}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+t.ID+".json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

// F formats a float compactly.
func F(v float64) string { return fmt.Sprintf("%.4g", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// D formats a duration compactly.
func D(d time.Duration) string { return d.Round(time.Microsecond).String() }

// Config scales experiment workloads.
type Config struct {
	// Quick shrinks workloads for CI-speed runs.
	Quick bool
}

// scale picks a workload size.
func (c Config) scale(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(cfg Config) (*Table, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"E1", "thread-cache", E1ThreadCache},
		{"E2", "inter-machine hops", E2InterMachine},
		{"E3", "topology routing", E3Topology},
		{"E4", "memo distribution", E4Distribution},
		{"E5", "locality-weighted placement", E5Locality},
		{"E6", "grain size", E6Grain},
		{"E7", "vs Linda", E7VsLinda},
		{"E8", "coordination structures", E8Structures},
		{"E9", "transferable scaling", E9Transferable},
		{"E10", "languages on the API", E10Languages},
	}
}

// Find locates an experiment by ID (case-insensitive).
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}
