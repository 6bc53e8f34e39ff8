package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
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

// Sample is one sample line of an exposition, read back by ParseText: the
// name as written (a histogram's _bucket, _sum and _count lines are samples
// of their own), its label block as RenderLabels renders it, and its value.
type Sample struct {
	Name   string
	Labels string // `{k="v",...}`, or ""
	Value  float64
}

// ParseText is the inverse of WriteProm: it reads a text exposition (a
// /metrics body) back into its samples, in order. HELP/TYPE comments and
// blank lines are skipped; a sample line without exactly one value is an
// error, not a silent zero.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexAny(line, "{ ")
		if end < 0 {
			return nil, fmt.Errorf("obs: no value in %q", line)
		}
		s := Sample{Name: line[:end]}
		rest := line[end:]
		if rest[0] == '{' {
			n, err := scanLabels(rest, nil)
			if err != nil {
				return nil, fmt.Errorf("obs: %v in %q", err, line)
			}
			s.Labels, rest = rest[:n], rest[n:]
		}
		f := strings.Fields(rest)
		if len(f) != 1 {
			return nil, fmt.Errorf("obs: want one value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in %q: %v", line, err)
		}
		s.Value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// Label returns the value of one label of s — RenderLabels inverted for
// one key — or "" when s carries no such label.
func (s Sample) Label(key string) string {
	var val string
	_, _ = scanLabels(s.Labels, func(k, quoted string) {
		if k == key {
			val, _ = strconv.Unquote(quoted)
		}
	})
	return val
}

// Sum adds the values of every sample named name, across label sets.
func Sum(samples []Sample, name string) float64 {
	var total float64
	for _, s := range samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// scanLabels reads the `{k="v",...}` block that s starts with, handing each
// key and its still-quoted value to each (if non-nil), and returns the
// block's length. Values are Go-quoted, as RenderLabels writes them, so a
// '}' or ',' inside one does not end it.
func scanLabels(s string, each func(key, quoted string)) (int, error) {
	if !strings.HasPrefix(s, "{") {
		return 0, fmt.Errorf("no label block")
	}
	i := 1
	for i < len(s) && s[i] != '}' {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("label without a value")
		}
		q, err := strconv.QuotedPrefix(s[i+eq+1:])
		if err != nil {
			return 0, fmt.Errorf("label value not quoted")
		}
		if each != nil {
			each(s[i:i+eq], q)
		}
		i += eq + 1 + len(q)
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	if i == len(s) {
		return 0, fmt.Errorf("unterminated label block")
	}
	return i + 1, nil
}
