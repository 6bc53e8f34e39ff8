package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent names the span that caused this one ("" for a root).
// Times are nanoseconds since the run's trace origin.
type span struct {
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceOrigin is the zero of every span's clock.
var traceOrigin = time.Now()

func sinceOrigin() int64 { return time.Since(traceOrigin).Nanoseconds() }

// roundTrace records the spans of one kept round into its caller's buffer.
// A nil *roundTrace records nothing, so the hot path calls begin/end
// unconditionally and only kept rounds pay for clock reads.
type roundTrace struct {
	c     *caller
	req   uint64
	stack []int // indices into c.spans of the open spans
}

// begin opens a span under the innermost open one and returns its handle.
func (r *roundTrace) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := ""
	if n := len(r.stack); n > 0 {
		parent = r.c.spans[r.stack[n-1]].Name
	}
	r.c.spans = append(r.c.spans, span{Req: r.req, Name: name, Parent: parent, StartNS: sinceOrigin()})
	i := len(r.c.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes the span begin returned, and any span opened inside it that an
// error path left open.
func (r *roundTrace) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := sinceOrigin()
	for len(r.stack) > 0 {
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		r.c.spans[top].EndNS = now
		if top == i {
			return
		}
	}
}

// spanLog collects spans recorded outside the callers (the ladder's
// batches) and, at exit, everything the callers kept.
type spanLog struct {
	spans []span
	next  uint64
}

// ladderReq marks the request ids of the ladder's batch spans, so they can
// never collide with a caller's (caller<<32 | round).
const ladderReq = 1 << 63

// timed runs fn with a root span around it and returns how long it took.
func (l *spanLog) timed(name string, fn func()) time.Duration {
	l.next++
	s := span{Req: ladderReq | l.next, Name: name, StartNS: sinceOrigin()}
	fn()
	s.EndNS = sinceOrigin()
	l.spans = append(l.spans, s)
	return time.Duration(s.EndNS - s.StartNS)
}

// write stores every span as one JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// medianSpanNS is the median duration of the completed spans with the given
// name, and how many there were.
func medianSpanNS(spans []span, name string) (float64, int) {
	var d []int64
	for _, s := range spans {
		if s.Name == name && s.EndNS > 0 {
			d = append(d, s.EndNS-s.StartNS)
		}
	}
	if len(d) == 0 {
		return 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/2]), len(d)
}
