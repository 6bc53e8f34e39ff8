package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Distributed span tracing (the cross-node half; wire/span.go defines the
// record format and the per-request SpanSet). A Tracer lives at the top of
// each server's dispatch: it decides at the entry point whether a request is
// sampled, hands the dispatch wrapper a SpanSet to collect into, and records
// every finished set — local spans plus whatever remote hops returned — into
// a bounded per-node TraceRing served at /tracez. `memo trace <id>` merges
// the rings of all nodes back into one timeline.

// Sampler makes the entry-point sampling decision. It is counter-based
// rather than random — one atomic add, deterministic at rate 1, and no rng
// on the hot path: a rate of 1/n samples exactly every nth entry request.
// A nil Sampler never samples.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler admitting roughly rate of entry requests
// (rate >= 1 admits all). rate <= 0 returns nil: never sample.
func NewSampler(rate float64) *Sampler {
	if rate <= 0 {
		return nil
	}
	every := uint64(1)
	if rate < 1 {
		every = uint64(1/rate + 0.5)
		if every < 1 {
			every = 1
		}
	}
	return &Sampler{every: every}
}

// Sample reports whether this entry request should be sampled (nil-safe).
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.n.Add(1)%s.every == 0
}

// TraceSample is one request's spans as seen by one node: the local span
// set of each hop this node owned, plus the remote spans those hops'
// forwards returned. The entry node's sample holds the full tree.
type TraceSample struct {
	Trace uint64      `json:"trace"`
	Spans []wire.Span `json:"spans"`
}

// defaultTraceCap bounds the trace ring when NewTraceRing is given no
// capacity.
const defaultTraceCap = 256

// TraceRing is a bounded ring of recent trace samples, newest overwriting
// oldest — the per-node store behind /tracez. All methods are nil-safe.
type TraceRing struct {
	recorded Counter

	mu   sync.Mutex
	ring []TraceSample
	next int
	n    int
}

// NewTraceRing returns a ring holding the last capacity traces (<= 0 means
// the default).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &TraceRing{ring: make([]TraceSample, capacity)}
}

// Record stores one trace sample (nil-safe; trace 0 and empty span sets are
// dropped). The spans slice is stored as-is: callers hand over ownership
// (SpanSet.Finish already returns a private copy).
func (r *TraceRing) Record(trace uint64, spans []wire.Span) {
	if r == nil || trace == 0 || len(spans) == 0 {
		return
	}
	r.recorded.Inc()
	r.mu.Lock()
	r.ring[r.next] = TraceSample{Trace: trace, Spans: spans}
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Recorded reports how many samples have been recorded since creation.
func (r *TraceRing) Recorded() int64 {
	if r == nil {
		return 0
	}
	return r.recorded.Load()
}

// Recent returns the recorded samples, newest first (at most the ring
// capacity). Nil-safe.
func (r *TraceRing) Recent() []TraceSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSample, 0, r.n)
	for i := 1; i <= r.n; i++ {
		idx := r.next - i
		if idx < 0 {
			idx += len(r.ring)
		}
		out = append(out, r.ring[idx])
	}
	return out
}

// Get returns every recorded sample for one trace ID, newest first — one
// trace can appear several times on a node that served several of its hops.
// Nil-safe.
func (r *TraceRing) Get(trace uint64) []TraceSample {
	if r == nil || trace == 0 {
		return nil
	}
	var out []TraceSample
	for _, ts := range r.Recent() {
		if ts.Trace == trace {
			out = append(out, ts)
		}
	}
	return out
}

// Tracer is one server's span-tracing front end: the sampling decision, the
// span-set ownership protocol, and the trace ring. A nil Tracer disables
// tracing entirely (every method is nil-safe); a Tracer with a nil sampler
// still collects and records spans for requests other nodes sampled.
type Tracer struct {
	node    string
	sampler *Sampler
	ring    *TraceRing
}

// NewTracer builds a tracer for a server named node ("memo@a",
// "folder-0@b"), sampling entry requests at rate (0 = relay-only) into a
// ring of ringCap traces (<= 0 means the default).
func NewTracer(node string, rate float64, ringCap int) *Tracer {
	return &Tracer{node: node, sampler: NewSampler(rate), ring: NewTraceRing(ringCap)}
}

// Ring exposes the trace ring (nil on a nil tracer) for /tracez.
func (t *Tracer) Ring() *TraceRing {
	if t == nil {
		return nil
	}
	return t.ring
}

// Begin is called by a dispatch wrapper at the top of a node. If the
// request deserves spans here — it arrived sampled, or it is an entry
// request (hop 0) the sampler admits — and no enclosing wrapper owns a set
// already, Begin attaches a fresh SpanSet to q and returns it; the caller
// owns the set and must Finish it. Otherwise it returns nil after a couple
// of branches: the tracing-off hot path allocates nothing and takes no
// timestamps.
func (t *Tracer) Begin(q *wire.Request) *wire.SpanSet {
	if t == nil || q.Spans != nil {
		return nil
	}
	if !q.Sampled {
		if q.Hops != 0 || !t.sampler.Sample() {
			return nil
		}
		q.Sampled = true
		if q.TraceID == 0 {
			q.TraceID = NewTraceID()
		}
	}
	set := wire.NewSpanSet()
	q.Spans = set
	return set
}

// Finish closes out a set returned by Begin: any remote spans still riding
// resp are merged in, every span recorded without a node name is stamped
// with this tracer's, the completed set is recorded into the ring, and a
// shallow clone of resp carrying the spans is returned for the rpc layer to
// ship back toward the entry node (resp itself may be the shared immutable
// OK response, so it is never mutated). q is not written either: the request
// object is fully reset before any reuse (recycleTask / DecodeRequestInto).
func (t *Tracer) Finish(q *wire.Request, set *wire.SpanSet, resp *wire.Response) *wire.Response {
	if len(resp.Spans) > 0 {
		set.AddMany(resp.Spans)
	}
	spans := set.Finish(t.node)
	t.ring.Record(q.TraceID, spans)
	set.Release()
	out := *resp
	out.Spans = spans
	return &out
}

// RecordSlow records a single-span sample for a traced request that turned
// out slow without being sampled — the "always-on for slow" half of the
// sampling policy: /tracez always has the requests /slowz complains about,
// even at -trace-sample 0. Nil-safe.
func (t *Tracer) RecordSlow(q *wire.Request, layer, op string, start time.Time, dur time.Duration) {
	if t == nil || q.TraceID == 0 {
		return
	}
	t.ring.Record(q.TraceID, []wire.Span{{
		Node:   t.node,
		Layer:  layer,
		Op:     op,
		Folder: q.FolderID,
		Hop:    q.TraceHop,
		Start:  start.UnixNano(),
		Dur:    int64(dur),
	}})
}
