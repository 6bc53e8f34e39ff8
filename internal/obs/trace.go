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
// every finished set — the spans this node made, nothing from other hops —
// into a bounded per-node TraceRing served at /tracez. A request that ran at
// or over the slow-request threshold, sampled or not, goes into a second
// ring that sampled traffic cannot flush. `memo trace <id>` is the one join:
// it merges the rings of all nodes back into one timeline by trace ID.

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

// TraceSample is the one record of what a request did on one node: the
// spans of a hop this node served, its outbound rpc and link spans
// included. A sampled request leaves one sample per node it crossed; a slow
// request that was not sampled leaves its one dispatch span.
type TraceSample struct {
	Trace uint64      `json:"trace"`
	Spans []wire.Span `json:"spans"`
}

// traceRingCap bounds each of a tracer's two rings.
const traceRingCap = 256

// TraceRing is a bounded ring of recent trace samples, newest overwriting
// oldest.
type TraceRing struct {
	recorded Counter

	mu   sync.Mutex
	ring [traceRingCap]TraceSample
	next int
	n    int
}

// Record stores one trace sample. The spans slice is stored as-is: callers
// hand over ownership (SpanSet.Finish already returns a private copy).
func (r *TraceRing) Record(trace uint64, spans []wire.Span) {
	r.recorded.Inc()
	r.mu.Lock()
	r.ring[r.next] = TraceSample{Trace: trace, Spans: spans}
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Get returns every recorded sample for one trace ID (0 = every sample),
// newest first — one trace can appear several times on a node that served
// several of its hops.
func (r *TraceRing) Get(trace uint64) []TraceSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TraceSample
	for i := 1; i <= r.n; i++ {
		ts := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if trace == 0 || ts.Trace == trace {
			out = append(out, ts)
		}
	}
	return out
}

// Tracer is one server's front end for recording what requests did: the
// entry sampling decision, the span-set ownership protocol around a
// dispatch, the slow-request threshold, and the two rings /tracez serves.
// Sampled trees and slow requests are retained apart — same record, same
// ring type — so that a node sampling every request (how the e2e harness
// runs) cannot evict the slow ones an operator comes looking for. A nil
// Tracer disables all of it (Begin and Threshold are nil-safe); a Tracer
// with a nil sampler still collects and records spans for requests other
// nodes sampled.
type Tracer struct {
	node      string
	sampler   *Sampler
	threshold time.Duration

	Sampled TraceRing
	Slow    TraceRing

	// onSlow, when set, sees every slow request's own span besides the ring
	// (the daemon's log line).
	onSlow func(trace uint64, sp wire.Span)
}

// NewTracer builds a tracer for a server named node ("memo@a"), sampling
// entry requests at rate (0 = relay-only) and recording requests that take
// at least slow (0 = never: no request is timed on account of it).
func NewTracer(node string, rate float64, slow time.Duration) *Tracer {
	return &Tracer{node: node, sampler: NewSampler(rate), threshold: slow}
}

// Threshold reports the slow-request threshold (0 = off, and on a nil
// tracer): a dispatch wrapper whose Begin returned nil times the request
// only when this is armed.
func (t *Tracer) Threshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.threshold
}

// OnSlow installs fn to be called, on the dispatching thread, with every
// slow request's trace ID and own span. Call it before the server starts.
func (t *Tracer) OnSlow(fn func(trace uint64, sp wire.Span)) { t.onSlow = fn }

// RegisterMetrics attaches the two rings' totals to reg.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	reg.RegisterCounter("trace_samples_total", "sampled span trees recorded", nil, &t.Sampled.recorded)
	reg.RegisterCounter("slow_requests_total", "requests at or over the slow-request threshold", nil, &t.Slow.recorded)
}

// Begin is called by a dispatch wrapper at the top of a node. It makes the
// two decisions a request's first node makes: an entry request (hop 0) the
// sampler admits becomes sampled, and a request that is sampled — or that
// could turn out slow here, the threshold being armed — and carries no
// trace ID yet is given one, so every record of it on every host carries the
// same name without the client's help. If the request is sampled and no
// enclosing wrapper owns a set already, Begin attaches a fresh SpanSet to q
// and returns it; the caller owns the set and must Finish it. Otherwise it
// returns nil: with sampling and the threshold both off that is a couple of
// branches, no allocation and no timestamp.
func (t *Tracer) Begin(q *wire.Request) *wire.SpanSet {
	if t == nil || q.Spans != nil {
		return nil
	}
	if !q.Sampled && q.Hops == 0 && t.sampler.Sample() {
		q.Sampled = true
	}
	if q.TraceID == 0 && (q.Sampled || t.threshold > 0) {
		q.TraceID = wire.NewID()
	}
	if !q.Sampled {
		return nil
	}
	set := wire.NewSpanSet()
	q.Spans = set
	return set
}

// Finish closes out a timed dispatch: own is the dispatch's span, set what
// Begin returned (nil for an unsampled request). For a sampled request own
// joins the set, every span recorded without a node name is stamped with
// this tracer's, and this node's subtree is recorded. A request at or over
// the threshold is recorded as slow as well: its subtree when it has one,
// own alone otherwise. q is not written: the request object is fully reset
// before any reuse (recyclePending / DecodeRequestInto).
func (t *Tracer) Finish(q *wire.Request, set *wire.SpanSet, own wire.Span) {
	own.Node = t.node
	slow := t.threshold > 0 && own.Dur >= int64(t.threshold)
	if set == nil {
		if slow {
			t.recordSlow(q.TraceID, []wire.Span{own}, own)
		}
		return
	}
	set.Add(own)
	spans := set.Finish(t.node)
	set.Release()
	t.Sampled.Record(q.TraceID, spans)
	if slow {
		t.recordSlow(q.TraceID, spans, own)
	}
}

func (t *Tracer) recordSlow(trace uint64, spans []wire.Span, own wire.Span) {
	t.Slow.Record(trace, spans)
	if t.onSlow != nil {
		t.onSlow(trace, own)
	}
}
