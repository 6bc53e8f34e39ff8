package e2e

import (
	"fmt"
	"math/rand"
)

// ActionType enumerates the chaos mix. A Weights table sets its shares; the
// generated trace is a pure function of the seed and the table (see
// GenActions), which is what makes regression seeds replayable.
type ActionType int

const (
	ActPut        ActionType = iota // library put, unique value
	ActPutCLI                       // same through the memo binary (-json)
	ActPutDelayed                   // put_delayed: hide value at Key until triggered, reveal at Key2
	ActGet                          // blocking take (async, bounded by opTimeout)
	ActGetSkip                      // non-blocking take
	ActGetSkipCLI                   // same through the memo binary
	ActAltTake                      // blocking multi-key take (async)
	ActAltSkip                      // non-blocking multi-key take
	ActWatch                        // get_copy: observe without consuming (async)
	ActPump                         // pump a program image, fetch it back
	ActKill                         // crash a node, restart it from its data dir, re-register
	ActSever                        // cut one inter-node link (one direction on daemons, both in-process)
	ActHeal                         // heal the oldest severed link
	actTypeCount
)

var actionNames = [...]string{
	"put", "put_cli", "put_delayed", "get", "get_skip", "get_skip_cli",
	"alt_take", "alt_skip", "watch", "pump", "kill", "sever", "heal",
}

func (a ActionType) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Weights is an action mix: each action type's share of a trace.
type Weights [actTypeCount]int

// e2eWeights is the daemon harness's mix, in percent, and the one the
// regression corpus replays under. Deposits outnumber takes slightly so
// folders stay non-empty and blocking takes resolve fast; chaos actions are
// rare enough that most of the trace is plain traffic *through* the faults
// they cause.
var e2eWeights = Weights{
	ActPut:        22,
	ActPutCLI:     5,
	ActPutDelayed: 6,
	ActGet:        8,
	ActGetSkip:    22,
	ActGetSkipCLI: 5,
	ActAltTake:    5,
	ActAltSkip:    6,
	ActWatch:      7,
	ActPump:       3,
	ActKill:       2,
	ActSever:      3,
	ActHeal:       6,
}

// Action is one step of a run. All fields are indices into the cluster's
// fixed host/key/pair tables so a trace is meaningful independent of ports
// and temp directories.
type Action struct {
	Type ActionType
	Host int   // entry host issuing the op
	Key  int   // key index (primary)
	Key2 int   // second key (put_delayed dest)
	Keys []int // key set for alt ops
	Node int   // node index for kill
	Pair int   // directed-link index for sever/heal
}

// GenActions derives the full action trace of the fixed cluster shape from
// the seed under mix w. It is a pure function — same (seed, n, w) in, same
// trace out — and deterministically guarantees at least one kill and one
// sever/heal pair, of the kinds w weights at all, so even a short smoke
// exercises both recovery paths.
func GenActions(seed int64, n int, w Weights) []Action {
	rng := rand.New(rand.NewSource(seed))
	pick := func() ActionType {
		total := 0
		for _, x := range w {
			total += x
		}
		r := rng.Intn(total)
		for t, x := range w {
			if r < x {
				return ActionType(t)
			}
			r -= x
		}
		return ActPut
	}
	acts := make([]Action, n)
	for i := range acts {
		a := Action{
			Type: pick(),
			Host: rng.Intn(hostCount),
			Key:  rng.Intn(keyCount),
			Key2: rng.Intn(keyCount),
			Node: rng.Intn(hostCount),
			Pair: rng.Intn(pairCount),
		}
		if a.Type == ActAltTake || a.Type == ActAltSkip {
			k := 2 + rng.Intn(2)
			seen := map[int]bool{}
			for len(a.Keys) < k {
				x := rng.Intn(keyCount)
				if !seen[x] {
					seen[x] = true
					a.Keys = append(a.Keys, x)
				}
			}
		}
		acts[i] = a
	}
	// Forced coverage: if the weighted draw produced no kill or no sever of a
	// weighted kind, overwrite fixed positions (deterministic — depends only
	// on the trace).
	hasKill, hasSever := false, false
	for _, a := range acts {
		hasKill = hasKill || a.Type == ActKill
		hasSever = hasSever || a.Type == ActSever
	}
	if n >= 4 {
		if !hasSever && w[ActSever] > 0 {
			acts[n/3] = Action{Type: ActSever, Pair: acts[n/3].Pair}
			acts[n/3+1] = Action{Type: ActHeal}
		}
		if !hasKill && w[ActKill] > 0 {
			acts[2*n/3] = Action{Type: ActKill, Node: acts[2*n/3].Node}
		}
	}
	return acts
}
