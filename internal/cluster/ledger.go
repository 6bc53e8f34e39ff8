package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rpc"
)

// Ledger is an exactly-once oracle's account of every operation's outcome.
// Values are unique per deposit, so consumption is checkable by value alone.
// Every call is booked with its error by one rule:
//
//   - nil: the outcome is acknowledged. An acked put promises its value
//     exists exactly once until consumed; an acked take consumed the value it
//     returned (or nothing, when it found its folder empty).
//   - core.ErrCanceled on a take: the owning store said the canceled take
//     consumed nothing.
//   - an *rpc.LinkError with Sent false: the call never reached the wire and
//     did nothing. A value whose put failed so and is observed later is a
//     phantom.
//   - any other error: the outcome is uncertain. The put landed 0 or 1
//     times; the take consumed 0 or 1 values, and is named by the dedup
//     token its error carries (core.TokenOf), when its client stamped one.
//
// Check audits the account once every booking site has returned: no value
// consumed twice, no value observed that no put may have deposited, and no
// acked value missing beyond what the uncertain takes can explain.
type Ledger struct {
	mu         sync.Mutex
	puts       map[string]putOutcome
	taken      map[string]int
	copied     map[string]bool
	t          Tally
	violations []string
}

type putOutcome uint8

const (
	putAcked putOutcome = iota + 1
	putUncertain
	putUnsent
)

// Tally counts what a ledger booked.
type Tally struct {
	Puts           int // deposits booked, whatever their outcome
	Acked          int // deposits acknowledged
	UncertainPuts  int // deposits that failed after possibly reaching the wire
	Unsent         int // calls, puts or takes, that provably never reached the wire
	Observed       int // distinct values consumed
	UncertainTakes int // takes that may have consumed one value
	// UncertainTokens names, in booking order, the uncertain takes whose
	// error carried their dedup token.
	UncertainTokens []uint64
	CanceledTakes   int // takes the owning store canceled having consumed nothing
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{puts: make(map[string]putOutcome), taken: make(map[string]int), copied: make(map[string]bool)}
}

func unsent(err error) bool {
	var le *rpc.LinkError
	return errors.As(err, &le) && !le.Sent
}

// Put books a deposit of v (put, put_delayed, drain trigger) that returned err.
func (l *Ledger) Put(v string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.Puts++
	switch {
	case err == nil:
		l.puts[v] = putAcked
		l.t.Acked++
	case unsent(err):
		l.puts[v] = putUnsent
		l.t.Unsent++
	default:
		l.puts[v] = putUncertain
		l.t.UncertainPuts++
	}
}

// Take books a destructive read (get, get_skip, alt_take, a drain sweep)
// that returned v, ok and err. ok is false for a skip that found its folder
// empty; v is read only when ok and err is nil.
func (l *Ledger) Take(v string, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case err == nil:
		if ok {
			l.taken[v]++
		}
	case errors.Is(err, core.ErrCanceled):
		l.t.CanceledTakes++
	case unsent(err):
		l.t.Unsent++
	default:
		l.t.UncertainTakes++
		if tok := core.TokenOf(err); tok != 0 {
			l.t.UncertainTokens = append(l.t.UncertainTokens, tok)
		}
	}
}

// Copy books a non-destructive read (watch, get_copy) that returned v and
// err: a value it observed must exist, but is not consumed.
func (l *Ledger) Copy(v string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		l.copied[v] = true
	}
}

// Violate records an invariant violation the caller detected itself
// (convergence failures, metrics imbalance).
func (l *Ledger) Violate(msg string) {
	l.mu.Lock()
	l.violations = append(l.violations, msg)
	l.mu.Unlock()
}

// Tally returns the booking counts so far.
func (l *Ledger) Tally() Tally {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.t
	t.Observed = len(l.taken)
	t.UncertainTokens = slices.Clone(t.UncertainTokens)
	return t
}

// Check returns every invariant violation, or nil if the account holds. It
// must run after every booking site has returned: a value observed ahead of
// its put's acknowledgement is legitimate until then.
func (l *Ledger) Check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	errs := append([]string(nil), l.violations...)
	phantom := func(how, v string) {
		switch l.puts[v] {
		case putAcked, putUncertain:
		case putUnsent:
			errs = append(errs, fmt.Sprintf("phantom: %s returned value %q whose put never reached the wire", how, v))
		default:
			errs = append(errs, fmt.Sprintf("phantom: %s returned value %q no put ever deposited", how, v))
		}
	}
	var missing []string
	for v, o := range l.puts {
		if o == putAcked && l.taken[v] == 0 {
			missing = append(missing, v)
		}
	}
	for v, n := range l.taken {
		if n > 1 {
			errs = append(errs, fmt.Sprintf("double-consume: value %q returned by %d takes", v, n))
		}
		phantom("take", v)
	}
	for v := range l.copied {
		phantom("copy", v)
	}
	if len(missing) > l.t.UncertainTakes {
		sort.Strings(missing)
		errs = append(errs, fmt.Sprintf(
			"loss: %d acked values never observed but only %d uncertain takes (tokens %#x) could have consumed them: %v",
			len(missing), l.t.UncertainTakes, l.t.UncertainTokens, missing))
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("oracle: %d violations:\n  %s", len(errs), strings.Join(errs, "\n  "))
}
