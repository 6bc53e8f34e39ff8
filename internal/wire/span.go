package wire

import (
	"encoding/binary"
	"sync"
)

// Distributed spans.
//
// A span is one timed step of a sampled request: which node recorded it,
// which layer (memo dispatch, rpc send, link forward, folder op, durable
// commit), what operation, when it started, how long it ran, and how long
// it waited first (dispatch-queue wait, batcher queue time, shard-lock wait,
// group-commit fsync — each layer reports the wait it owns). Spans ride
// response batch entries as a flag-gated extension (see batch.go): each hop
// returns the spans it collected, so the entry node ends up holding the
// whole tree.
//
// The span codec mirrors the request/response codec conventions: uvarints
// for counts, length-prefixed strings, and signed varints for the
// nanosecond fields. Unlike payload decoding, DecodeSpans COPIES — spans
// outlive the pooled frame they arrive in by design.

// Span is one recorded step of a sampled request.
type Span struct {
	// Node identifies the recording server ("memo@a", "folder-0@b"). Layers
	// that don't know their host (rpc) leave it empty; the owning dispatch
	// wrapper fills it before the set leaves the node.
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

func (w *writer) i64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.pos += n
	return v
}

// AppendSpans serializes spans onto dst (returned, possibly reallocated):
// uvarint count, then per span node/layer/op strings, signed-varint folder,
// uvarint hop, and signed-varint start/dur/wait.
func AppendSpans(dst []byte, spans []Span) []byte {
	w := writer{buf: dst}
	w.u64(uint64(len(spans)))
	for i := range spans {
		s := &spans[i]
		w.str(s.Node)
		w.str(s.Layer)
		w.str(s.Op)
		w.i64(int64(s.Folder))
		w.u64(uint64(s.Hop))
		w.i64(s.Start)
		w.i64(s.Dur)
		w.i64(s.Wait)
	}
	return w.buf
}

// SpansOverhead conservatively bounds the encoded size of spans — the
// AppendSpans output never exceeds it.
func SpansOverhead(spans []Span) int {
	n := binary.MaxVarintLen64
	for i := range spans {
		s := &spans[i]
		n += len(s.Node) + len(s.Layer) + len(s.Op) + 8*binary.MaxVarintLen64
	}
	return n
}

// DecodeSpans parses a span blob. The returned spans are fully owned (the
// string fields are copies), so they may outlive buf — span blobs arrive
// inside pooled batch frames that are recycled right after decode.
func DecodeSpans(buf []byte) ([]Span, error) {
	r := &reader{buf: buf}
	n := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	// Each span costs at least 8 bytes on the wire; an absurd count is a
	// hostile blob, not an allocation request.
	if n > uint64(len(buf))/8 {
		return nil, ErrTruncated
	}
	spans := make([]Span, 0, n)
	for i := uint64(0); i < n; i++ {
		var s Span
		s.Node = r.str()
		s.Layer = r.str()
		s.Op = r.str()
		s.Folder = int(r.i64())
		s.Hop = int(r.u64())
		s.Start = r.i64()
		s.Dur = r.i64()
		s.Wait = r.i64()
		if r.err != nil {
			return nil, r.err
		}
		spans = append(spans, s)
	}
	if r.pos != len(buf) {
		return nil, ErrTruncated
	}
	return spans, nil
}

// maxSpansPerSet bounds one request's span tree. A request that somehow
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

// AddMany appends spans returned by a remote hop (nil-safe).
func (s *SpanSet) AddMany(spans []Span) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range spans {
		if len(s.spans) >= maxSpansPerSet {
			break
		}
		s.spans = append(s.spans, spans[i])
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
// private copy of the set — the slice the owner records into its trace ring
// and attaches to the response, safe against handlers still appending.
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
