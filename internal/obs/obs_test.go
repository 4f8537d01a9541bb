package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a now func that starts at a fixed instant and
// advances 1ms per call, making span timings deterministic.
func fakeClock() func() time.Time {
	base := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

func TestDisabledSpanIsNil(t *testing.T) {
	if Enabled() {
		t.Fatal("no trace is live, Enabled() = true")
	}
	ctx, span := StartSpan(context.Background(), "x")
	if span != nil {
		t.Fatalf("StartSpan without a live trace returned %v, want nil", span)
	}
	if CurrentSpan(ctx) != nil {
		t.Fatal("nil span leaked into the context")
	}
	// All methods must be no-ops on the nil span.
	span.SetAttr("k", "v")
	span.Fail(errors.New("boom"))
	span.End()
	// Metric helpers must be no-ops without a live trace.
	Count(ctx, "ccdac_test_total", 1)
	SetGauge(ctx, "ccdac_test_um", 1)
	Observe(ctx, "ccdac_test_seconds", 1)
}

func TestNestedSpanParenting(t *testing.T) {
	tr := New(Options{})
	defer tr.Finish()
	ctx := WithTrace(context.Background(), tr)

	octx, outer := StartSpan(ctx, "outer")
	if outer == nil {
		t.Fatal("StartSpan under a live trace returned nil")
	}
	if CurrentSpan(octx) != outer {
		t.Fatal("outer span not carried by its context")
	}
	ictx, inner := StartSpan(octx, "inner")
	_, leaf := StartSpan(ictx, "leaf")
	leaf.End()
	inner.Fail(errors.New("inner broke"))
	inner.End()
	outer.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if got := byName["outer"].ParentID; got != 0 {
		t.Errorf("outer.ParentID = %d, want 0 (root)", got)
	}
	if got, want := byName["inner"].ParentID, byName["outer"].ID; got != want {
		t.Errorf("inner.ParentID = %d, want %d", got, want)
	}
	if got, want := byName["leaf"].ParentID, byName["inner"].ID; got != want {
		t.Errorf("leaf.ParentID = %d, want %d", got, want)
	}
	if byName["inner"].Err != "inner broke" {
		t.Errorf("inner.Err = %q, want %q", byName["inner"].Err, "inner broke")
	}
	if byName["outer"].Err != "" || byName["leaf"].Err != "" {
		t.Error("error leaked onto spans that did not Fail")
	}
	// Completion order: leaf, inner, outer.
	if spans[0].Name != "leaf" || spans[2].Name != "outer" {
		t.Errorf("completion order = %s,%s,%s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
}

func TestSpanEndAfterFinishDropped(t *testing.T) {
	tr := New(Options{})
	ctx := WithTrace(context.Background(), tr)
	_, a := StartSpan(ctx, "a")
	_, b := StartSpan(ctx, "b")
	a.End()
	tr.Finish()
	b.End() // too late: must not be recorded
	b.End() // and End must stay idempotent
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("got %d spans after Finish, want 1", got)
	}
	if Enabled() {
		t.Fatal("trace finished but Enabled() = true")
	}
	tr.Finish() // idempotent: must not drive the live count negative
	if Enabled() {
		t.Fatal("double Finish corrupted the live-trace count")
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	const goroutines, perG = 8, 100
	tr := New(Options{})
	defer tr.Finish()
	ctx := WithTrace(context.Background(), tr)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sctx, span := StartSpan(ctx, "worker")
				span.SetAttr("g", fmt.Sprint(g))
				_, child := StartSpan(sctx, "worker.step")
				CountL(sctx, "ccdac_test_steps_total", Labels{"g": fmt.Sprint(g % 2)}, 1)
				Observe(sctx, "ccdac_test_size", float64(i))
				child.End()
				span.End()
			}
		}(g)
	}
	wg.Wait()

	if got := len(tr.Spans()); got != 2*goroutines*perG {
		t.Fatalf("got %d spans, want %d", got, 2*goroutines*perG)
	}
	snap := tr.Registry().Snapshot()
	total := snap.Counter("ccdac_test_steps_total", Labels{"g": "0"}) +
		snap.Counter("ccdac_test_steps_total", Labels{"g": "1"})
	if total != goroutines*perG {
		t.Fatalf("counter total = %d, want %d", total, goroutines*perG)
	}
	h := snap.Histograms["ccdac_test_size"]
	if h.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
}

func TestTraceIsolation(t *testing.T) {
	// Two live traces: metrics recorded under one context must not
	// bleed into the other trace's registry.
	t1, t2 := New(Options{}), New(Options{})
	defer t1.Finish()
	defer t2.Finish()
	ctx1 := WithTrace(context.Background(), t1)
	ctx2 := WithTrace(context.Background(), t2)
	Count(ctx1, "ccdac_test_total", 3)
	Count(ctx2, "ccdac_test_total", 5)
	if got := t1.Registry().Snapshot().Counter("ccdac_test_total", nil); got != 3 {
		t.Errorf("trace 1 counter = %d, want 3", got)
	}
	if got := t2.Registry().Snapshot().Counter("ccdac_test_total", nil); got != 5 {
		t.Errorf("trace 2 counter = %d, want 5", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ccdac_test_size", nil, []float64{1, 4})
	// A sample exactly on a bound belongs to that bound's bucket
	// (le semantics); above the last bound goes to +Inf.
	for _, v := range []float64{0.5, 1, 4, 4.0001} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1} // le=1: {0.5, 1}; le=4: {4}; +Inf: {4.0001}
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], want[i])
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if s.Sum != 0.5+1+4+4.0001 {
		t.Errorf("sum = %g", s.Sum)
	}
}

func TestDefaultBucketSelection(t *testing.T) {
	if got := defaultBuckets("ccdac_core_stage_seconds"); &got[0] != &DefaultDurationBuckets[0] {
		t.Error("_seconds metric did not select the duration buckets")
	}
	if got := defaultBuckets("ccdac_extract_nodes_total"); &got[0] != &DefaultSizeBuckets[0] {
		t.Error("non-_seconds metric did not select the size buckets")
	}
}

func TestGoldenJSONL(t *testing.T) {
	tr := New(Options{})
	tr.now = fakeClock()
	ctx := WithTrace(context.Background(), tr)

	octx, outer := StartSpan(ctx, "generate") // start +0ms
	_, inner := StartSpan(octx, "routing")    // start +1ms
	inner.SetAttr("iter", "1")
	inner.Fail(errors.New("boom"))
	inner.End() // +2ms -> dur 1ms
	outer.End() // +3ms -> dur 3ms
	tr.Finish()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	want := `{"id":2,"parent":1,"name":"routing","start":"2025-01-02T03:04:05.001Z","dur_ns":1000000,"err":"boom","attrs":{"iter":"1"}}
{"id":1,"name":"generate","start":"2025-01-02T03:04:05Z","dur_ns":3000000}
`
	if got := buf.String(); got != want {
		t.Errorf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ccdac_test_total", nil).Add(3)
	r.Counter("ccdac_test_labeled_total", Labels{"stage": "routing"}).Add(2)
	r.Gauge("ccdac_test_um", nil).Set(1.5)
	h := r.Histogram("ccdac_test_seconds", Labels{"stage": "routing"}, []float64{0.5, 1})
	for _, v := range []float64{0.25, 1, 5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ccdac_test_labeled_total counter
ccdac_test_labeled_total{stage="routing"} 2
# TYPE ccdac_test_seconds histogram
ccdac_test_seconds_bucket{stage="routing",le="0.5"} 1
ccdac_test_seconds_bucket{stage="routing",le="1"} 2
ccdac_test_seconds_bucket{stage="routing",le="+Inf"} 3
ccdac_test_seconds_sum{stage="routing"} 6.25
ccdac_test_seconds_count{stage="routing"} 3
# TYPE ccdac_test_total counter
ccdac_test_total 3
# TYPE ccdac_test_um gauge
ccdac_test_um 1.5
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus text mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestGoldenPrometheusLabelEscaping(t *testing.T) {
	// Backslash, double quote, and newline are the three characters the
	// exposition format escapes in label values; tabs and UTF-8 pass
	// through raw. Go %q-style escaping (\t, é) is unparsable.
	r := NewRegistry()
	r.Counter("ccdac_test_total", Labels{"path": `a\b"c` + "\nd"}).Add(1)
	r.Gauge("ccdac_test_um", Labels{"note": "tab\tand é stay raw"}).Set(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ccdac_test_total counter
ccdac_test_total{path="a\\b\"c\nd"} 1
# TYPE ccdac_test_um gauge
ccdac_test_um{note="tab	and é stay raw"} 2
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus text mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The escaped form is also the snapshot key, so lookups through the
	// same Labels map still resolve the series.
	if got := r.Snapshot().Counter("ccdac_test_total", Labels{"path": `a\b"c` + "\nd"}); got != 1 {
		t.Errorf("escaped-label counter lookup = %d, want 1", got)
	}
}

func TestRegistryMerge(t *testing.T) {
	src := NewRegistry()
	src.Counter("ccdac_test_total", nil).Add(3)
	src.Counter("ccdac_test_labeled_total", Labels{"stage": "routing"}).Add(2)
	src.Gauge("ccdac_test_um", nil).Set(1.5)
	h := src.Histogram("ccdac_test_seconds", nil, []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(5)
	snap := src.Snapshot()

	dst := NewRegistry()
	dst.Counter("ccdac_test_total", nil).Add(10)
	dst.Merge(snap)
	dst.Merge(snap)

	got := dst.Snapshot()
	if v := got.Counter("ccdac_test_total", nil); v != 16 {
		t.Errorf("merged counter = %d, want 16", v)
	}
	if v := got.Counter("ccdac_test_labeled_total", Labels{"stage": "routing"}); v != 4 {
		t.Errorf("merged labeled counter = %d, want 4", v)
	}
	if v := got.Gauge("ccdac_test_um", nil); v != 1.5 {
		t.Errorf("merged gauge = %g, want 1.5", v)
	}
	hs := got.Histograms["ccdac_test_seconds"]
	if hs.Count != 4 || hs.Sum != 2*(0.25+5) {
		t.Errorf("merged histogram count/sum = %d/%g, want 4/%g", hs.Count, hs.Sum, 2*(0.25+5))
	}
	wantCounts := []uint64{2, 0, 2} // le=0.5: both 0.25s; +Inf: both 5s
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Errorf("merged bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
}

func TestRegistryMergeRebuckets(t *testing.T) {
	// Mismatched bounds: each source bucket lands at its upper bound in
	// the destination's bucketing, totals preserved.
	src := NewRegistry()
	h := src.Histogram("ccdac_test_size", nil, []float64{2, 8})
	for _, v := range []float64{1, 5, 100} { // buckets: le=2:1, le=8:1, +Inf:1
		h.Observe(v)
	}
	dst := NewRegistry()
	dst.Histogram("ccdac_test_size", nil, []float64{4}) // le=4, +Inf
	dst.Merge(src.Snapshot())

	hs := dst.Snapshot().Histograms["ccdac_test_size"]
	// le=2 bucket re-files at 2 (<=4), le=8 bucket at 8 (+Inf), overflow at +Inf.
	if hs.Counts[0] != 1 || hs.Counts[1] != 2 {
		t.Errorf("re-bucketed counts = %v, want [1 2]", hs.Counts)
	}
	if hs.Count != 3 || hs.Sum != 106 {
		t.Errorf("re-bucketed count/sum = %d/%g, want 3/106", hs.Count, hs.Sum)
	}
}

func TestRegistryMergeConcurrent(t *testing.T) {
	// Concurrent merges of per-"request" snapshots must not drop
	// counts — the invariant the serve daemon's global registry relies
	// on (and the race detector checks the locking).
	const goroutines, perG = 8, 50
	global := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r := NewRegistry()
				r.Counter("ccdac_test_runs_total", nil).Inc()
				r.Histogram("ccdac_test_seconds", nil, DefaultDurationBuckets).Observe(0.01)
				global.Merge(r.Snapshot())
			}
		}()
	}
	wg.Wait()
	snap := global.Snapshot()
	if got := snap.Counter("ccdac_test_runs_total", nil); got != goroutines*perG {
		t.Errorf("merged counter = %d, want %d (dropped merges)", got, goroutines*perG)
	}
	if got := snap.Histograms["ccdac_test_seconds"].Count; got != goroutines*perG {
		t.Errorf("merged histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestWriteTree(t *testing.T) {
	tr := New(Options{})
	tr.now = fakeClock()
	ctx := WithTrace(context.Background(), tr)

	gctx, root := StartSpan(ctx, "generate") // +0
	_, p := StartSpan(gctx, "placement")     // +1
	p.End()                                  // +2 -> 1ms
	rctx, rt := StartSpan(gctx, "routing")   // +3
	_, w := StartSpan(rctx, "route.wires")   // +4
	w.Fail(errors.New("blocked track\nsecond line ignored"))
	w.End()    // +5 -> 1ms
	rt.End()   // +6 -> 3ms
	root.End() // +7 -> 7ms
	tr.Finish()

	var buf bytes.Buffer
	if err := WriteTree(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "%-42s %12s %6.1f%%\n", "generate", "7ms", 100.0)
	fmt.Fprintf(&want, "%-42s %12s %6.1f%%\n", "  placement", "1ms", 100.0/7)
	fmt.Fprintf(&want, "%-42s %12s %6.1f%%\n", "  routing", "3ms", 300.0/7)
	fmt.Fprintf(&want, "%-42s %12s %6.1f%%%s\n", "    route.wires", "1ms", 100.0/7,
		"  ERROR: blocked track")
	if got := buf.String(); got != want.String() {
		t.Errorf("tree mismatch:\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

func TestMemStatsDeltas(t *testing.T) {
	tr := New(Options{MemStats: true})
	defer tr.Finish()
	ctx := WithTrace(context.Background(), tr)
	_, span := StartSpan(ctx, "alloc")
	sink = make([]byte, 1<<20)
	span.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].AllocBytes < 1<<20 {
		t.Errorf("AllocBytes = %d, want >= %d", spans[0].AllocBytes, 1<<20)
	}
	if spans[0].AllocObjects == 0 {
		t.Error("AllocObjects = 0, want > 0")
	}
}

// sink defeats allocation elision in TestMemStatsDeltas.
var sink []byte

// BenchmarkDisabledStartSpan measures the disarmed fast path: one
// atomic load and out. This is the cost every instrumentation site
// pays on an unobserved run.
func BenchmarkDisabledStartSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, span := StartSpan(ctx, "bench")
		span.End()
	}
}

// BenchmarkDisabledCount measures the disarmed metric helper path.
func BenchmarkDisabledCount(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(ctx, "ccdac_bench_total", 1)
	}
}

// BenchmarkEnabledSpan measures the armed span cost for overhead
// budgeting against full stage durations.
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New(Options{})
	defer tr.Finish()
	ctx := WithTrace(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, span := StartSpan(ctx, "bench")
		span.End()
	}
}
