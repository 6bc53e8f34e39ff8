package lockcheck_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.New(), "a")
}

// TestIgnore proves the suppression silences exactly the annotated
// diagnostic and nothing else.
func TestIgnore(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lockcheck.New(), "ignore")
	var suppressed []analysis.Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 1 {
		t.Fatalf("got %d suppressed diagnostics, want exactly 1: %v", len(suppressed), suppressed)
	}
	if want := "recovery runs single-threaded before serving starts"; suppressed[0].Reason != want {
		t.Errorf("suppression reason = %q, want %q", suppressed[0].Reason, want)
	}
}

// TestNonblocking: a nonblocking function that calls a blocking one, or
// reaches it through an unmarked helper, is reported; a clean one is not.
func TestNonblocking(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.New(), "nonblock")
}
