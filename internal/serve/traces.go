// Trace introspection endpoints: the flight recorder's index and span
// trees (GET /debug/traces, /debug/traces/{id}) and the live span event
// stream (GET /v1/events, Server-Sent Events). The recorder holds the
// recent past — errored, degraded, and slowest-percentile requests pinned
// by the tail sampler — while the SSE stream shows the present: span
// start/end and counter events of in-flight generations, published by
// the span bus without ever blocking the pipeline.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ccdac/internal/obs"
)

// sseHeartbeat keeps idle event streams alive through proxies that
// time out silent connections.
const sseHeartbeat = 10 * time.Second

// sseBuffer is each SSE subscriber's event channel depth. A subscriber
// that cannot keep up loses events; publishing never blocks the
// pipeline.
const sseBuffer = 256

// traceIndexResponse is the JSON body of GET /debug/traces.
type traceIndexResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
	Stats  traceIndexStats    `json:"stats"`
}

type traceIndexStats struct {
	Offered              int64            `json:"offered"`
	Evicted              int64            `json:"evicted"`
	Retained             map[string]int64 `json:"retained"`
	Live                 int              `json:"live"`
	SlowThresholdSeconds float64          `json:"slow_threshold_seconds"`
}

// handleTraceIndex lists every retained trace, newest first, with its
// retention reason — the entry point for "what went wrong recently".
func (s *Server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: trace recording disabled"))
		return
	}
	st := s.recorder.Stats()
	retained := make(map[string]int64, len(st.Retained))
	for k, v := range st.Retained {
		retained[string(k)] = v
	}
	writeJSON(w, http.StatusOK, traceIndexResponse{
		Traces: s.recorder.List(),
		Stats: traceIndexStats{
			Offered: st.Offered, Evicted: st.Evicted, Retained: retained,
			Live: st.Live, SlowThresholdSeconds: st.SlowThresholdSeconds,
		},
	})
}

// traceResponse is the JSON body of GET /debug/traces/{id}: the index
// row plus the full span tree and, when the trace was persisted to the
// artifact store, the content hash of its durable OTLP blob.
type traceResponse struct {
	TraceID         string           `json:"trace_id"`
	Tag             string           `json:"tag,omitempty"`
	Name            string           `json:"name"`
	Start           time.Time        `json:"start"`
	DurationSeconds float64          `json:"duration_seconds"`
	Err             string           `json:"error,omitempty"`
	Warnings        int              `json:"warnings,omitempty"`
	Reason          obs.RetainReason `json:"reason"`
	ArtifactHash    string           `json:"artifact_hash,omitempty"`
	// ProfileArtifacts maps capture kind (cpu, goroutine, heap) to the
	// store hash of the profile a for-cause retention triggered, each
	// retrievable via GET /v1/artifacts/{hash}.
	ProfileArtifacts map[string]string `json:"profile_artifacts,omitempty"`
	Spans            []obs.SpanRecord  `json:"spans"`
}

// handleTraceGet returns one retained trace: the native span-tree JSON
// by default, or an OTLP/JSON export (?format=otlp) ready to POST to a
// collector's /v1/traces.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: trace recording disabled"))
		return
	}
	id := r.PathValue("id")
	t, ok := s.recorder.Get(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: trace %q not retained (expired or never recorded)", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "otlp":
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteOTLP(w, "ccdacd", t.ID, t.Spans); err != nil {
			s.log.Error("otlp write failed", "trace_id", id, "err", err)
		}
	case "", "json":
		resp := traceResponse{
			TraceID: t.ID, Tag: t.Tag, Name: t.Name, Start: t.Start,
			DurationSeconds: t.Duration.Seconds(),
			Err:             t.Err, Warnings: t.Warnings, Reason: t.Reason,
			Spans: t.Spans,
		}
		if s.store != nil {
			if hash, ok := s.store.LookupIndex(traceIndexKey(t.ID)); ok {
				resp.ArtifactHash = hash
			}
			resp.ProfileArtifacts = s.profileArtifacts(t.ID)
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		s.writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("serve: unknown trace format %q (want \"json\" or \"otlp\")", format))
	}
}

// handleEvents streams live span events as Server-Sent Events:
//
//	curl -N 'http://localhost:8080/v1/events?request_id=abc123'
//
// With a request_id filter the stream closes itself after that trace's
// trace_finish; unfiltered streams run until the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("request_id")
	s.serveSSE(w, r, filter, func(ev obs.Event) bool {
		// The subscribed request is done; nothing more will match.
		return filter != "" && ev.Type == obs.EventTraceFinish
	}, nil)
}

// sseFinal is the closing frame of a stream that follows one subject.
type sseFinal struct {
	event string
	data  any
}

// serveSSE streams the bus events matching filter as Server-Sent
// Events. Each event carries the bus sequence number as the SSE id
// (gaps mean the stream fell behind and events were dropped — the bus
// never blocks a request on a slow consumer), the event type (span_start,
// span_end, counter, trace_finish) as the SSE event name, and the
// obs.Event JSON as data; a comment heartbeat keeps idle streams alive.
// The stream ends when the client leaves or a write fails, after an
// event for which last (may be nil) reports true, or when finished (may
// be nil; run on its own goroutine once subscribed) returns ok: the
// events already buffered drain first, then its final frame goes out.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, filter string,
	last func(obs.Event) bool, finished func(context.Context) (sseFinal, bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, fmt.Errorf("serve: streaming unsupported"))
		return
	}
	sub := s.bus.Subscribe(filter, sseBuffer)
	defer sub.Close()
	done := make(chan sseFinal, 1)
	if finished != nil {
		go func() {
			if f, ok := finished(r.Context()); ok {
				done <- f
			}
		}()
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// write sends one event frame and reports whether the stream goes on.
	write := func(ev obs.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return last == nil || !last(ev)
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ev, ok := <-sub.Events():
			if !ok || !write(ev) {
				return
			}
		case f := <-done:
			// Drain events already buffered before announcing the end.
			for len(sub.Events()) > 0 {
				if !write(<-sub.Events()) {
					return
				}
			}
			if data, err := json.Marshal(f.data); err == nil {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, data)
				fl.Flush()
			}
			return
		}
	}
}

// traceIndexKey is the store index key under which a retained trace's
// OTLP blob is persisted.
func traceIndexKey(id string) string { return "trace/" + id }
