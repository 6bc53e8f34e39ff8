package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
		{"uncertain take named by its token", func(l *Ledger) {
			l.Put("a", nil)
			l.Take("", false, &core.TokenError{Token: 0xbeef, Err: maybe})
		}, false},
		{"loss beyond a named uncertain take", func(l *Ledger) {
			l.Put("a", nil)
			l.Put("b", nil)
			l.Put("c", nil)
			l.Take("", false, &core.TokenError{Token: 0xbeef, Err: maybe})
			l.Take("", false, maybe)
			l.Take("", false, &core.TokenError{Token: 0xcafe, Err: canceled})
		}, true},
	}
	// The uncertain takes' tokens a row's tally must name, and its loss
	// message too when flagged.
	named := map[string][]uint64{
		"uncertain take named by its token":  {0xbeef},
		"loss beyond a named uncertain take": {0xbeef},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			l := NewLedger()
			row.book(l)
			err := l.Check()
			if (err != nil) != row.flagged {
				t.Fatalf("Check() = %v, want flagged = %v (%+v)", err, row.flagged, l.Tally())
			}
			if got := l.Tally().UncertainTokens; !slices.Equal(got, named[row.name]) {
				t.Fatalf("tally names uncertain tokens %#x, want %#x", got, named[row.name])
			}
			for _, tok := range named[row.name] {
				if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("%#x", tok)) {
					t.Fatalf("Check() = %v, which does not name token %#x", err, tok)
				}
			}
		})
	}
}
