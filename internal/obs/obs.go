// Package obs is the pipeline's observability layer: span-based stage
// tracing, a metrics registry (counters, gauges, histograms), and
// profiling hooks (runtime/pprof goroutine labels, optional heap
// snapshots at span close). It has no dependencies outside the
// standard library and is safe for concurrent use.
//
// Cost model: every instrumentation site fast-paths out on a single
// atomic load while no Trace is live (the same disarmed-cost pattern as
// internal/fault), so instrumented code pays ~nothing when nobody is
// observing. A site only does real work when a caller created a Trace
// with New and attached it to the context flowing through the pipeline:
//
//	tr := obs.New(obs.Options{})
//	defer tr.Finish()
//	ctx = obs.WithTrace(ctx, tr)
//	ctx, span := obs.StartSpan(ctx, "route.trunk")
//	...
//	span.End()
//
// Spans nest through the context: StartSpan parents the new span under
// the span already in ctx, so a stage that forwards its span context to
// a sub-stage gets a tree for free. Metrics recorded through the
// context helpers (Count, SetGauge, Observe) land in the registry of
// the context's trace, keeping concurrent runs isolated. See
// docs/OBSERVABILITY.md for the span model and naming convention.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// active counts live (un-Finished) traces. Instrumentation sites load
// it once and return immediately when it is zero; this is the only cost
// tracing imposes on an unobserved run.
var active atomic.Int64

// Enabled reports whether any trace is currently collecting.
func Enabled() bool { return active.Load() > 0 }

// Options tunes what a Trace collects beyond wall time.
type Options struct {
	// PprofLabels tags the running goroutine with a "ccdac_span" label
	// while each span is open, so CPU profiles attribute samples to
	// pipeline stages (go tool pprof -tagfocus).
	PprofLabels bool
	// MemStats snapshots runtime.MemStats at span start and close and
	// records the per-span allocation delta (bytes and object count).
	// ReadMemStats is expensive; enable only for allocation hunts.
	MemStats bool
}

// Trace collects the spans and metrics of one observed run.
type Trace struct {
	opts Options

	// id is the 16-byte (32 hex character) trace identifier, unique
	// within the process and OTLP-shaped for export.
	id string
	// tag is an optional caller-assigned correlation label (the serve
	// daemon tags traces with the request ID); bus subscribers can
	// filter on it. Set before the trace is shared across goroutines.
	tag string
	// bus, when attached, receives live span start/end and counter
	// events as the trace runs. Attach before the trace is shared.
	bus *Bus

	mu       sync.Mutex
	spans    []*Span
	finished bool

	nextID atomic.Uint64
	reg    *Registry

	// now is the clock, swappable by tests for deterministic output.
	now func() time.Time
}

// traceIDSeed is a per-process random prefix; combined with a counter
// it yields unique 16-byte trace IDs without per-trace entropy reads.
var (
	traceIDSeed [8]byte
	traceIDSeq  atomic.Uint64
)

func init() {
	// A failed read leaves the zero seed: IDs stay unique within the
	// process, only cross-process collision resistance degrades.
	_, _ = rand.Read(traceIDSeed[:])
}

func newTraceID() string {
	var b [16]byte
	copy(b[:8], traceIDSeed[:])
	binary.BigEndian.PutUint64(b[8:], traceIDSeq.Add(1))
	return hex.EncodeToString(b[:])
}

// New returns a live trace. Every New must be paired with Finish:
// the count of live traces is what arms the package-wide fast path.
func New(opts Options) *Trace {
	t := &Trace{opts: opts, id: newTraceID(), reg: NewRegistry(), now: time.Now}
	active.Add(1)
	return t
}

// ID returns the trace's 32-hex-character identifier.
func (t *Trace) ID() string { return t.id }

// SetTag labels the trace with a caller correlation key (e.g. an HTTP
// request ID); bus events carry it and subscribers can filter on it.
// Call before the trace is shared across goroutines.
func (t *Trace) SetTag(tag string) { t.tag = tag }

// Tag returns the trace's correlation label ("" if unset).
func (t *Trace) Tag() string { return t.tag }

// AttachBus streams this trace's span start/end and counter events to
// b as they happen. Call before the trace is shared across goroutines.
// The trace publishes nothing while b has no subscribers.
func (t *Trace) AttachBus(b *Bus) { t.bus = b }

// emitting reports whether event construction is worth the work: a bus
// is attached and someone is listening.
func (t *Trace) emitting() bool {
	return t.bus != nil && t.bus.HasSubscribers()
}

// emit stamps the trace identity onto ev and publishes it.
func (t *Trace) emit(ev Event) {
	ev.TraceID = t.id
	ev.Tag = t.tag
	t.bus.publish(ev)
}

// Finish marks the trace complete and disarms it. Idempotent. Spans
// still open at Finish are dropped from the record when they End.
func (t *Trace) Finish() {
	t.mu.Lock()
	done := t.finished
	t.finished = true
	t.mu.Unlock()
	if !done {
		active.Add(-1)
		if t.emitting() {
			t.emit(Event{Type: EventTraceFinish, Time: t.now()})
		}
	}
}

// Registry returns the trace's metrics registry.
func (t *Trace) Registry() *Registry { return t.reg }

// SpanRecord is the immutable snapshot of one finished span.
type SpanRecord struct {
	// ID and ParentID identify the span within its trace; ParentID is 0
	// for root spans.
	ID, ParentID uint64
	// Name identifies the stage, e.g. "routing" or "route.wires".
	Name  string
	Start time.Time
	// Duration is the span's wall time.
	Duration time.Duration
	// Err is the failure that marked this span errored ("" if none).
	Err string
	// Attrs carries stage-specific key/value annotations.
	Attrs map[string]string
	// AllocBytes and AllocObjects are the heap-allocation deltas over
	// the span's lifetime (zero unless Options.MemStats).
	AllocBytes, AllocObjects uint64
}

// Spans returns the finished spans in completion order.
func (t *Trace) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = s.record()
	}
	return out
}

// Span is one open (or finished) traced region. The zero of *Span is
// nil, and every method is nil-safe, so instrumentation sites never
// need to branch on whether tracing is live.
type Span struct {
	tr      *Trace
	id      uint64
	parent  uint64
	name    string
	start   time.Time
	end     time.Time
	err     string
	attrs   map[string]string
	prevCtx context.Context // pprof label restore target
	// TotalAlloc and Mallocs at start and their deltas at End, with
	// Options.MemStats only; a whole runtime.MemStats is ~6 KB a span.
	allocStart, mallocsStart uint64
	alloc, objects           uint64
	ended                    atomic.Bool
}

type spanKey struct{}
type traceKey struct{}

// WithTrace attaches a trace to the context; StartSpan under this
// context records into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan opens a span named name under the span already in ctx (or
// as a root span) and returns the context carrying it. When no live
// trace is reachable it returns (ctx, nil) after one atomic load; the
// nil span's methods are no-ops.
//
// End must be called on the same goroutine that called StartSpan when
// Options.PprofLabels is set (goroutine labels are restored at End).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if active.Load() == 0 {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tr *Trace
	if parent != nil {
		tr = parent.tr
	} else {
		tr = FromContext(ctx)
	}
	if tr == nil {
		return ctx, nil
	}
	s := &Span{tr: tr, id: tr.nextID.Add(1), name: name, start: tr.now(), prevCtx: ctx}
	if parent != nil {
		s.parent = parent.id
	}
	ctx = context.WithValue(ctx, spanKey{}, s)
	if tr.opts.PprofLabels {
		ctx = pprof.WithLabels(ctx, pprof.Labels("ccdac_span", name))
		pprof.SetGoroutineLabels(ctx)
	}
	if tr.opts.MemStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocStart, s.mallocsStart = ms.TotalAlloc, ms.Mallocs
	}
	if tr.emitting() {
		tr.emit(Event{
			Type: EventSpanStart, Time: s.start,
			SpanID: s.id, ParentID: s.parent, Name: name,
		})
	}
	return ctx, s
}

// CurrentSpan returns the span carried by ctx, or nil.
func CurrentSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ID returns the span's trace-local ID (0 for the nil span), the same
// value SpanRecord.ID reports after End — callers use it to correlate
// external records (e.g. structured request logs) with the span tree.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Fail marks the span errored. The span stays open until End; calling
// Fail(nil) is a no-op, so `defer span.Fail(err)`-style uses are safe.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.err = err.Error()
}

// SetAttr annotates the span. Must be called before End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End closes the span, snapshots its allocation delta (if enabled),
// restores the goroutine's pprof labels, and appends the record to the
// trace. Idempotent: only the first End records.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.end = s.tr.now()
	if s.tr.opts.MemStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.alloc = ms.TotalAlloc - s.allocStart
		s.objects = ms.Mallocs - s.mallocsStart
	}
	if s.tr.opts.PprofLabels {
		pprof.SetGoroutineLabels(s.prevCtx)
	}
	s.tr.mu.Lock()
	if !s.tr.finished {
		s.tr.spans = append(s.tr.spans, s)
	}
	s.tr.mu.Unlock()
	if s.tr.emitting() {
		// attrs are immutable once End has run (SetAttr contract), so
		// sharing the map with subscribers is safe.
		s.tr.emit(Event{
			Type: EventSpanEnd, Time: s.end,
			SpanID: s.id, ParentID: s.parent, Name: s.name,
			DurNS: s.end.Sub(s.start).Nanoseconds(), Err: s.err, Attrs: s.attrs,
		})
	}
}

func (s *Span) record() SpanRecord {
	r := SpanRecord{
		ID: s.id, ParentID: s.parent, Name: s.name,
		Start: s.start, Duration: s.end.Sub(s.start), Err: s.err,
		AllocBytes: s.alloc, AllocObjects: s.objects,
	}
	if len(s.attrs) > 0 {
		r.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			r.Attrs[k] = v
		}
	}
	return r
}

// Count adds delta to the named counter in the context trace's
// registry. One atomic load and out when no trace is live.
func Count(ctx context.Context, name string, delta int64) {
	CountL(ctx, name, nil, delta)
}

// CountL is Count with metric labels.
func CountL(ctx context.Context, name string, labels Labels, delta int64) {
	if active.Load() == 0 {
		return
	}
	if tr := traceOf(ctx); tr != nil {
		tr.reg.Counter(name, labels).Add(delta)
		if tr.emitting() {
			tr.emit(Event{
				Type: EventCounter, Time: tr.now(),
				SpanID: CurrentSpan(ctx).ID(),
				Name:   seriesKey(name, labels), Delta: delta,
			})
		}
	}
}

// SetGauge sets the named gauge in the context trace's registry.
func SetGauge(ctx context.Context, name string, v float64) {
	if active.Load() == 0 {
		return
	}
	if tr := traceOf(ctx); tr != nil {
		tr.reg.Gauge(name, nil).Set(v)
	}
}

// Observe records v into the named histogram of the context trace's
// registry, with default buckets chosen by the name's unit suffix.
func Observe(ctx context.Context, name string, v float64) {
	ObserveL(ctx, name, nil, v)
}

// ObserveL is Observe with metric labels.
func ObserveL(ctx context.Context, name string, labels Labels, v float64) {
	if active.Load() == 0 {
		return
	}
	if tr := traceOf(ctx); tr != nil {
		tr.reg.Histogram(name, labels, defaultBuckets(name)).Observe(v)
	}
}

// ObserveDuration records d in seconds into the named histogram.
func ObserveDuration(ctx context.Context, name string, d time.Duration) {
	ObserveL(ctx, name, nil, d.Seconds())
}

// ObserveDurationL is ObserveDuration with metric labels.
func ObserveDurationL(ctx context.Context, name string, labels Labels, d time.Duration) {
	ObserveL(ctx, name, labels, d.Seconds())
}

// traceOf resolves the trace reachable from ctx: the current span's
// trace first (cheap, most sites run under a span), then the context
// trace itself.
func traceOf(ctx context.Context) *Trace {
	if s := CurrentSpan(ctx); s != nil {
		return s.tr
	}
	return FromContext(ctx)
}
