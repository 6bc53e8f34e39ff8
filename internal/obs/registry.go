package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a registered series.
type Kind byte

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// sample is one labeled time series under a metric name. Exactly one of
// read/hist/float is set.
type sample struct {
	labels string // pre-rendered `{k="v",...}`, or ""
	read   func() int64
	hist   *Histogram
	float  *float64 // a scrape-time value that is not a count (CPU seconds)
}

// series is one metric name: its help text, kind, and statically
// registered samples.
type series struct {
	name, help string
	kind       Kind
	samples    []sample
}

// Collector emits dynamically scoped samples at scrape time — the hook for
// per-instance metrics whose instances come and go after registration (a
// memo server's folder servers appear at app registration; peer links
// appear on first forward). The emitter callback runs under the registry
// lock; keep it to reads and emits.
type Collector func(e *Emitter)

// Registry is a named collection of metric series. All methods are safe
// for concurrent use; registration is expected at setup time (it
// allocates), scraping at any time.
type Registry struct {
	mu         sync.Mutex
	series     []*series // registration order
	byName     map[string]*series
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*series)}
}

// Default is the process-wide registry: package-level aggregates (rpc,
// pool, transport, durable) register into it at init, and the daemons'
// debug servers expose it.
var Default = NewRegistry()

// RenderLabels renders a label map in the Prometheus sample form
// `{k="v",...}`, keys sorted; empty input renders "". Call it at
// registration time, not on a hot path.
func RenderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the series for name, creating it with the given kind and
// help on first use. Re-registrations under a different kind panic: that is
// a programming error, caught at setup time.
func (r *Registry) lookup(name, help string, kind Kind) *series {
	s, ok := r.byName[name]
	if !ok {
		s = &series{name: name, help: help, kind: kind}
		r.byName[name] = s
		r.series = append(r.series, s)
		return s
	}
	if s.kind != kind {
		panic(fmt.Sprintf("obs: series %q registered as both %v and %v", name, s.kind, kind))
	}
	return s
}

// Counter creates and registers an unlabeled counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, nil, c)
	return c
}

// Gauge creates and registers an unlabeled gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, nil, g)
	return g
}

// Histogram creates and registers an unlabeled histogram series.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, nil, h)
	return h
}

// RegisterCounter attaches an existing Counter as one labeled sample of the
// named series — the unification hook: an owner keeps its counter on the
// hot path and the registry reads the very same instance at scrape time.
func (r *Registry) RegisterCounter(name, help string, labels map[string]string, c *Counter) {
	r.register(name, help, KindCounter, sample{labels: RenderLabels(labels), read: c.Load})
}

// RegisterGauge attaches an existing Gauge as one labeled sample.
func (r *Registry) RegisterGauge(name, help string, labels map[string]string, g *Gauge) {
	r.register(name, help, KindGauge, sample{labels: RenderLabels(labels), read: g.Load})
}

// RegisterHistogram attaches an existing Histogram as one labeled sample.
func (r *Registry) RegisterHistogram(name, help string, labels map[string]string, h *Histogram) {
	r.register(name, help, KindHistogram, sample{labels: RenderLabels(labels), hist: h})
}

func (r *Registry) register(name, help string, kind Kind, sm sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, help, kind)
	s.samples = append(s.samples, sm)
}

// RegisterCollector adds a scrape-time collector (see Collector).
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Emitter receives one scrape's dynamically collected samples.
type Emitter struct {
	byName map[string]*series
	order  []*series
}

func (e *Emitter) add(name, help string, kind Kind, sm sample) {
	s, ok := e.byName[name]
	if !ok {
		s = &series{name: name, help: help, kind: kind}
		e.byName[name] = s
		e.order = append(e.order, s)
	}
	s.samples = append(s.samples, sm)
}

func (e *Emitter) emit(name, help string, kind Kind, labels map[string]string, v int64) {
	e.add(name, help, kind, sample{labels: RenderLabels(labels), read: func() int64 { return v }})
}

// emitFloat emits one unlabeled fractional sample.
func (e *Emitter) emitFloat(name, help string, kind Kind, v float64) {
	e.add(name, help, kind, sample{float: &v})
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name, help string, labels map[string]string, v int64) {
	e.emit(name, help, KindCounter, labels, v)
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, labels map[string]string, v int64) {
	e.emit(name, help, KindGauge, labels, v)
}

// gather snapshots the registered series plus one collector pass, in
// registration order (collected series after static ones).
func (r *Registry) gather() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*series, 0, len(r.series)+8)
	out = append(out, r.series...)
	if len(r.collectors) > 0 {
		e := &Emitter{byName: make(map[string]*series)}
		for _, c := range r.collectors {
			c(e)
		}
		out = append(out, e.order...)
	}
	return out
}

// WriteProm writes the registry in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers per series, one line per sample,
// histograms as cumulative le-buckets with _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, s := range r.gather() {
		if s.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
			return err
		}
		for _, sm := range s.samples {
			if sm.hist != nil {
				if err := writePromHist(w, s.name, sm.labels, sm.hist); err != nil {
					return err
				}
				continue
			}
			var err error
			if sm.float != nil {
				_, err = fmt.Fprintf(w, "%s%s %g\n", s.name, sm.labels, *sm.float)
			} else {
				_, err = fmt.Fprintf(w, "%s%s %d\n", s.name, sm.labels, sm.read())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHist renders one histogram sample: cumulative buckets, sum,
// count. The le label is appended to any pre-rendered labels.
func writePromHist(w io.Writer, name, labels string, h *Histogram) error {
	buckets := h.Snapshot()
	// Bucket lines splice le into any pre-rendered label block:
	// `{le="4"}` bare, `{folder="1",le="4"}` labeled.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	cum := int64(0)
	for i, n := range buckets {
		cum += n
		le := "+Inf"
		if b := BucketBound(i); b >= 0 {
			le = fmt.Sprint(b)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", name, open, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
	return err
}

// seriesJSON is the JSON snapshot shape of one series.
type seriesJSON struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Samples []sampleJSON `json:"samples"`
}

type sampleJSON struct {
	Labels string         `json:"labels,omitempty"`
	Value  *int64         `json:"value,omitempty"`
	Float  *float64       `json:"float,omitempty"`
	Hist   *histogramJSON `json:"histogram,omitempty"`
}

type histogramJSON struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Buckets map[string]int64 `json:"buckets"`
}

// Snapshot returns the registry's current state as a JSON-marshalable
// structure — the /statusz body and the METRICS.json dmemo-bench emits.
func (r *Registry) Snapshot() []seriesJSON {
	gathered := r.gather()
	out := make([]seriesJSON, 0, len(gathered))
	for _, s := range gathered {
		sj := seriesJSON{Name: s.name, Kind: s.kind.String(), Help: s.help}
		for _, sm := range s.samples {
			if sm.hist != nil {
				buckets := sm.hist.Snapshot()
				hj := &histogramJSON{Sum: sm.hist.Sum(), Buckets: make(map[string]int64)}
				for i, n := range buckets {
					hj.Count += n
					if n == 0 {
						continue
					}
					le := "+Inf"
					if b := BucketBound(i); b >= 0 {
						le = fmt.Sprint(b)
					}
					hj.Buckets[le] = n
				}
				sj.Samples = append(sj.Samples, sampleJSON{Labels: sm.labels, Hist: hj})
				continue
			}
			if sm.float != nil {
				sj.Samples = append(sj.Samples, sampleJSON{Labels: sm.labels, Float: sm.float})
				continue
			}
			v := sm.read()
			sj.Samples = append(sj.Samples, sampleJSON{Labels: sm.labels, Value: &v})
		}
		out = append(out, sj)
	}
	return out
}

// WriteJSON writes the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
