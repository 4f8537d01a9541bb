package ccdac

import (
	"io"
	"strings"
	"time"

	"ccdac/internal/obs"
)

// SpanRecord is one finished span of a generation trace: a named,
// timed region of the pipeline (a stage like "routing", or a nested
// sub-stage like "route.wires"), parented into a tree.
type SpanRecord struct {
	// ID and ParentID place the span in its trace's tree; ParentID is
	// zero for root spans.
	ID, ParentID uint64
	// Name identifies the traced region; the top-level stages are named
	// after the pipeline phases ("placement", "routing", "extraction",
	// "analysis") under a "generate" root.
	Name  string
	Start time.Time
	// Duration is the span's wall time.
	Duration time.Duration
	// Err is non-empty when the region failed; the span of the stage
	// named by a *PipelineError is always marked.
	Err string
	// Attrs carries region-specific annotations (e.g. the routing
	// iteration index, a best-BC candidate's structure parameters).
	Attrs map[string]string
	// AllocBytes and AllocObjects are heap-allocation deltas over the
	// span (zero unless Config.TraceMemStats).
	AllocBytes, AllocObjects uint64
}

// Trace is the observability record of one generation run, populated
// on Result.Trace when Config.Trace is set: the span tree of every
// pipeline stage plus the run's metrics (counters, gauges, duration
// histograms). See docs/OBSERVABILITY.md for the span model and the
// metric naming convention.
type Trace struct {
	id      string
	spans   []obs.SpanRecord
	metrics obs.MetricsSnapshot
}

func newTrace(t *obs.Trace) *Trace {
	return &Trace{id: t.ID(), spans: t.Spans(), metrics: t.Registry().Snapshot()}
}

// ID returns the run's 32-hex trace identifier (the OTLP trace ID used
// by WriteOTLP).
func (t *Trace) ID() string { return t.id }

// Spans returns the finished spans in completion order.
func (t *Trace) Spans() []SpanRecord {
	out := make([]SpanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanRecord{
			ID: s.ID, ParentID: s.ParentID, Name: s.Name,
			Start: s.Start, Duration: s.Duration, Err: s.Err,
			Attrs:      s.Attrs,
			AllocBytes: s.AllocBytes, AllocObjects: s.AllocObjects,
		}
	}
	return out
}

// Counter returns the value of an unlabeled counter metric (zero if
// the run never touched it), e.g.
// t.Counter("ccdac_core_parwire_retry_total").
func (t *Trace) Counter(name string) int64 { return t.metrics.Counters[name] }

// Counters returns every counter series (key: metric name plus
// rendered labels) and its value.
func (t *Trace) Counters() map[string]int64 {
	out := make(map[string]int64, len(t.metrics.Counters))
	for k, v := range t.metrics.Counters {
		out[k] = v
	}
	return out
}

// Gauge returns the value of an unlabeled gauge metric (zero if unset).
func (t *Trace) Gauge(name string) float64 { return t.metrics.Gauges[name] }

// MetricsSnapshot returns the run's frozen metrics registry for
// process-level aggregation: in-module callers (the CLIs, the serve
// daemon) fold it into a global obs.Registry via Merge so multi-run
// invocations emit one aggregated exposition.
func (t *Trace) MetricsSnapshot() obs.MetricsSnapshot { return t.metrics }

// WriteJSONL emits the spans as JSON Lines, one span event per line.
func (t *Trace) WriteJSONL(w io.Writer) error { return obs.WriteJSONL(w, t.spans) }

// WriteOTLP emits the span tree as one OTLP/JSON export request under
// the given service name, ready to POST to any OTLP collector
// (Jaeger, Tempo, otel-collector) at /v1/traces.
func (t *Trace) WriteOTLP(w io.Writer, service string) error {
	return obs.WriteOTLP(w, service, t.id, t.spans)
}

// WritePrometheus emits the run's metrics in the Prometheus text
// exposition format.
func (t *Trace) WritePrometheus(w io.Writer) error {
	return obs.WritePrometheus(w, t.metrics)
}

// StageTree renders the human-readable stage-time tree: each span's
// wall time and share of its root span, indented by nesting depth.
func (t *Trace) StageTree() string {
	var b strings.Builder
	// strings.Builder never errors.
	_ = obs.WriteTree(&b, t.spans)
	return b.String()
}
