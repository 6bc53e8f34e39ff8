package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every experiment at quick scale and checks
// that each produced a table whose "shape holds" note is present — i.e. the
// paper's qualitative claim reproduced.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run(Config{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			out := buf.String()
			if !strings.Contains(out, r.ID) {
				t.Fatalf("table missing its ID:\n%s", out)
			}
			for _, n := range tbl.Notes {
				if strings.Contains(n, "WARNING") {
					t.Errorf("%s claim did not reproduce: %s\n%s", r.ID, n, out)
				}
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("e4"); !ok {
		t.Fatal("Find is not case-insensitive")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "title",
		Claim:   "claim",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"very-long-cell", "b"}},
		Notes:   []string{"note text"},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"EX — title", "claim: claim", "long-column", "very-long-cell", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSONSaysWhereItWasMeasured: every BENCH_<ID>.json names the cores
// and the commit its numbers come from.
func TestWriteJSONSaysWhereItWasMeasured(t *testing.T) {
	tbl := &Table{ID: "EX", Title: "title", Columns: []string{"a"}, Rows: [][]string{{"1"}}}
	path, err := tbl.WriteJSON(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID         string `json:"id"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
		Commit     string `json:"commit"`
	}
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "EX" || got.GOMAXPROCS != runtime.GOMAXPROCS(0) || got.NumCPU != runtime.NumCPU() || got.Commit == "" {
		t.Fatalf("provenance missing from %s", blob)
	}
}
