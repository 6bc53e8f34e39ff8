package wire

import "sync"

// Distributed spans.
//
// A span is one timed step of a sampled request: which node recorded it,
// which layer (memo dispatch, rpc send, link forward, folder op, durable
// commit), what operation, when it started, how long it ran, and how long
// it waited first (dispatch-queue wait, batcher queue time, shard-lock wait,
// group-commit fsync — each layer reports the wait it owns). Spans never
// leave the node that recorded them: only the trace ID and the sampled bit
// ride requests (see batch.go), each hop records its own subtree, and
// `memo trace <id>` joins the nodes' records by that ID.

// Span is one recorded step of a sampled request.
type Span struct {
	// Node identifies the recording server ("memo@a", "folder-0@b"). Layers
	// that don't know their host (rpc) leave it empty; the owning dispatch
	// wrapper fills it when it records the set.
	Node string `json:"node"`
	// Layer is the subsystem that recorded the span: "memo", "rpc", "link",
	// "folder", or "durable".
	Layer string `json:"layer"`
	// Op names the step within the layer (an Op.String(), a peer host for
	// link spans, "park"/"commit" for waits surfaced as their own spans).
	Op string `json:"op"`
	// Folder is the target folder server (-1 when not folder-addressed).
	Folder int `json:"folder"`
	// Hop is the forward-hop counter at record time.
	Hop int `json:"hop"`
	// Start is the span's start time in Unix nanoseconds.
	Start int64 `json:"start_ns"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Wait is the portion of Dur spent waiting before real work (queue
	// wait, batcher queue time, lock wait); 0 when the layer has none.
	Wait int64 `json:"wait_ns,omitempty"`
}

// maxSpansPerSet bounds one node's record of a request. A request that somehow
// produces more (a pathological retry storm) keeps the first maxSpansPerSet
// and drops the rest — tracing must never amplify a failure.
const maxSpansPerSet = 64

// SpanSet accumulates the spans of one sampled request while it moves
// through a node. It is created by the owning dispatch wrapper and shared
// down the local call stack via Request.Spans; every layer runs on the
// dispatching thread and has returned before the owner's Release puts the
// set back in the pool.
type SpanSet struct {
	mu    sync.Mutex
	spans []Span
}

var spanSetPool = sync.Pool{
	New: func() any { return &SpanSet{spans: make([]Span, 0, 8)} },
}

// NewSpanSet returns an empty set, owned by the caller until Release.
func NewSpanSet() *SpanSet {
	return spanSetPool.Get().(*SpanSet)
}

// Release resets the set and returns it to the pool (nil-safe). Only the
// owner calls it, once, after every layer below has returned.
func (s *SpanSet) Release() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.spans = s.spans[:0]
	s.mu.Unlock()
	spanSetPool.Put(s)
}

// Add appends one span (nil-safe; drops past maxSpansPerSet).
func (s *SpanSet) Add(sp Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.spans) < maxSpansPerSet {
		s.spans = append(s.spans, sp)
	}
	s.mu.Unlock()
}

// Len reports the number of collected spans (nil-safe).
func (s *SpanSet) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	n := len(s.spans)
	s.mu.Unlock()
	return n
}

// Finish stamps node on every span recorded without one and returns a
// private copy of the set — the slice the owner records into its trace ring,
// safe against handlers still appending.
func (s *SpanSet) Finish(node string) []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	for i := range s.spans {
		if s.spans[i].Node == "" {
			s.spans[i].Node = node
		}
	}
	out := make([]Span, len(s.spans))
	copy(out, s.spans)
	s.mu.Unlock()
	return out
}
