package cluster

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// TestOracleSelfTest books deliberate histories — clean ones, and ones with a
// duplicate, a loss or a phantom — and requires the ledger to pass exactly
// the clean ones: the oracle is only trustworthy if it provably fails on the
// bugs it exists to catch.
func TestOracleSelfTest(t *testing.T) {
	var (
		maybe    = errors.New("link reset mid-call") // outcome unknown
		notSent  = &rpc.LinkError{Sent: false}
		canceled = core.ErrCanceled
	)
	rows := []struct {
		name    string
		book    func(l *Ledger)
		flagged bool
	}{
		{"clean", func(l *Ledger) {
			l.Put("a", nil)
			l.Take("a", true, nil)
			l.Put("b", maybe)
			l.Put("c", nil)
			l.Take("", false, maybe) // may have eaten c
			l.Take("", false, nil)   // a skip that found its folder empty
		}, false},
		{"duplicate", func(l *Ledger) {
			l.Put("a", nil)
			l.Take("a", true, nil)
			l.Take("a", true, nil)
		}, true},
		{"loss", func(l *Ledger) { l.Put("a", nil) }, true},
		{"phantom", func(l *Ledger) { l.Take("never-deposited", true, nil) }, true},
		{"uncertain put landed once", func(l *Ledger) {
			l.Put("maybe", maybe)
			l.Take("maybe", true, nil)
		}, false},
		{"uncertain put landed twice", func(l *Ledger) {
			l.Put("maybe", maybe)
			l.Take("maybe", true, nil)
			l.Take("maybe", true, nil)
		}, true},
		{"canceled take consumed nothing", func(l *Ledger) {
			l.Put("a", nil)
			l.Take("", false, canceled)
			l.Take("a", true, nil)
		}, false},
		{"unsent take consumed nothing", func(l *Ledger) {
			l.Put("a", nil)
			l.Take("", false, notSent)
			l.Take("a", true, nil)
		}, false},
		{"unsent put appears", func(l *Ledger) {
			l.Put("ghost", notSent)
			l.Take("ghost", true, nil)
		}, true},
		{"unsent put copied", func(l *Ledger) {
			l.Put("ghost", notSent)
			l.Copy("ghost", nil)
		}, true},
		{"acked value lost behind a canceled take", func(l *Ledger) {
			l.Put("a", nil)
			l.Take("", false, canceled)
		}, true},
		{"violation", func(l *Ledger) { l.Violate("watcher never converged") }, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			l := NewLedger()
			row.book(l)
			if err := l.Check(); (err != nil) != row.flagged {
				t.Fatalf("Check() = %v, want flagged = %v (%+v)", err, row.flagged, l.Tally())
			}
		})
	}
}
