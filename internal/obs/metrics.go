package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Labels attaches dimensions to a metric (e.g. stage="routing"). Nil
// means no labels. Label sets are rendered in sorted-key order, so two
// maps with equal contents name the same series.
type Labels map[string]string

// Metric names follow the convention ccdac_<pkg>_<name>_<unit>
// (docs/OBSERVABILITY.md): _total for counters, _seconds/_um/_bytes
// etc. for the measured unit. The registry does not enforce it, but
// default histogram buckets key off the unit suffix.

// DefaultDurationBuckets are the upper bounds (seconds) used for
// *_seconds histograms: 1µs to ~100s, decade-and-a-half spaced, wide
// enough to cover one routing iteration and a full best-BC sweep.
var DefaultDurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10, 100,
}

// DefaultSizeBuckets are the upper bounds used for count/size
// histograms (nodes, iterations, bytes): powers of four up to ~1M.
var DefaultSizeBuckets = []float64{
	1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
}

// DefaultRatioBuckets are the upper bounds used for *_residual and
// *_ratio histograms: log-spaced from 1e-16 (below float64 machine
// epsilon — a fully converged solve) up to 1 (no convergence at all).
var DefaultRatioBuckets = []float64{
	1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1,
}

// defaultBuckets picks histogram bounds from the metric's unit suffix.
func defaultBuckets(name string) []float64 {
	if strings.HasSuffix(name, "_seconds") {
		return DefaultDurationBuckets
	}
	if strings.HasSuffix(name, "_residual") || strings.HasSuffix(name, "_ratio") {
		return DefaultRatioBuckets
	}
	return DefaultSizeBuckets
}

// Registry holds one run's (or one process's) metric instruments.
// Series are created on first use and live for the registry's lifetime.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*GaugeValue
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*GaugeValue{},
		hists:    map[string]*Histogram{},
	}
}

// labelEscaper rewrites the three characters the Prometheus text
// exposition format requires escaped inside label values — backslash,
// double quote, and newline. Everything else (tabs, UTF-8) passes
// through raw, which the format allows; Go-style %q escaping would
// emit sequences like \t and é that Prometheus parsers reject.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// seriesKey renders name plus the sorted label set, which is also the
// Prometheus exposition form of the series name (label values escaped
// per the exposition spec).
func seriesKey(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		labelEscaper.WriteString(&b, labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SeriesKey renders a metric name plus label set exactly as snapshot
// maps and the Prometheus exposition key it — for callers that inject
// externally-maintained series into a MetricsSnapshot before writing.
func SeriesKey(name string, labels Labels) string { return seriesKey(name, labels) }

// baseName strips the label set off a series key.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// GaugeValue is a last-write-wins float metric.
type GaugeValue struct{ bits atomic.Uint64 }

// Set stores v.
func (g *GaugeValue) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *GaugeValue) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Exemplar links one histogram bucket to the trace that produced a
// recent sample in it — the OpenMetrics mechanism that lets a latency
// dashboard jump from a bucket straight to a retained trace.
type Exemplar struct {
	// Value is the observed sample; TraceID identifies the trace that
	// produced it; Time is when it was observed.
	Value   float64
	TraceID string
	Time    time.Time
}

// Histogram is a fixed-bucket distribution: Observe files v under the
// first bucket whose upper bound is >= v (an implicit +Inf bucket
// catches the rest), and tracks the sum and count for mean queries.
type Histogram struct {
	bounds []float64

	mu        sync.Mutex
	counts    []uint64 // len(bounds)+1; last is the +Inf overflow
	sum       float64
	n         uint64
	exemplars []*Exemplar // lazily allocated, len(bounds)+1; last-write-wins per bucket
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// ObserveExemplar records one sample and attaches an exemplar linking
// the sample's bucket to traceID (last write per bucket wins).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	ex := &Exemplar{Value: v, TraceID: traceID, Time: time.Now()}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	if h.exemplars == nil {
		h.exemplars = make([]*Exemplar, len(h.counts))
	}
	h.exemplars[i] = ex
	h.mu.Unlock()
}

// Snapshot returns the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
	if h.exemplars != nil {
		// Exemplar values are immutable once stored (ObserveExemplar
		// replaces the pointer), so sharing them is safe.
		s.Exemplars = append([]*Exemplar(nil), h.exemplars...)
	}
	return s
}

// Counter returns (creating on first use) the named counter series.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge series.
func (r *Registry) Gauge(name string, labels Labels) *GaugeValue {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &GaugeValue{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram series
// with the given bucket upper bounds; bounds are fixed at creation and
// ignored on later lookups.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[key] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram series.
type HistogramSnapshot struct {
	Bounds []float64 // bucket upper bounds, ascending
	Counts []uint64  // per-bucket counts; last entry is the +Inf bucket
	Sum    float64
	Count  uint64
	// Exemplars is index-aligned with Counts when any bucket carries
	// one (nil entries mean no exemplar for that bucket), nil when the
	// series never recorded exemplars.
	Exemplars []*Exemplar
}

// MetricsSnapshot is a frozen, map-backed view of a registry, keyed by
// series key (name plus rendered labels).
type MetricsSnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// Counter returns the value of the series identified by name and
// labels (zero if the series was never written).
func (s MetricsSnapshot) Counter(name string, labels Labels) int64 {
	return s.Counters[seriesKey(name, labels)]
}

// Gauge returns the value of the named gauge series (zero if unset).
func (s MetricsSnapshot) Gauge(name string, labels Labels) float64 {
	return s.Gauges[seriesKey(name, labels)]
}

// merge folds a frozen histogram into h. Matching bucket bounds add
// count-for-count; mismatched bounds re-bucket each source bucket at
// its upper bound (the +Inf overflow stays overflow), which preserves
// totals at the cost of bound-resolution.
func (h *Histogram) merge(s HistogramSnapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	same := len(s.Bounds) == len(h.bounds)
	for i := 0; same && i < len(h.bounds); i++ {
		same = h.bounds[i] == s.Bounds[i]
	}
	if same {
		for i, n := range s.Counts {
			h.counts[i] += n
		}
		// Exemplars merge newest-wins per bucket; they are dropped on a
		// re-bucketing merge (the bucket association is gone).
		for i, ex := range s.Exemplars {
			if ex == nil {
				continue
			}
			if h.exemplars == nil {
				h.exemplars = make([]*Exemplar, len(h.counts))
			}
			if cur := h.exemplars[i]; cur == nil || ex.Time.After(cur.Time) {
				h.exemplars[i] = ex
			}
		}
	} else {
		for i, n := range s.Counts {
			if n == 0 {
				continue
			}
			v := math.Inf(1)
			if i < len(s.Bounds) {
				v = s.Bounds[i]
			}
			h.counts[sort.SearchFloat64s(h.bounds, v)] += n
		}
	}
	h.sum += s.Sum
	h.n += s.Count
}

// Merge folds a frozen snapshot into the registry, series by series
// and label-set by label-set: counters add, gauges take the snapshot's
// value (last write wins), histograms add bucket counts (see
// Histogram merge semantics for mismatched bounds). Series absent
// from the registry are created with the snapshot's values. Merge is
// safe to call concurrently with itself and with every other registry
// method; this is how per-request registries fold into a process-level
// one (internal/serve) and per-run CLI snapshots into one exposition.
func (r *Registry) Merge(s MetricsSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range s.Counters {
		c, ok := r.counters[k]
		if !ok {
			c = &Counter{}
			r.counters[k] = c
		}
		c.Add(v)
	}
	for k, v := range s.Gauges {
		g, ok := r.gauges[k]
		if !ok {
			g = &GaugeValue{}
			r.gauges[k] = g
		}
		g.Set(v)
	}
	for k, hs := range s.Histograms {
		h, ok := r.hists[k]
		if !ok {
			b := append([]float64(nil), hs.Bounds...)
			h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
			r.hists[k] = h
		}
		h.merge(hs)
	}
}
