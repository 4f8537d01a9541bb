package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"ccdac"
	"ccdac/internal/obs"
)

// reqInfo rides the request context: the request ID assigned by wrap
// and, for generate requests, the root span ID and retained-trace
// reference the handler publishes so the access log can correlate to
// the span tree and the latency histogram can carry exemplars.
type reqInfo struct {
	id     string
	spanID atomic.Uint64
	trace  atomic.Pointer[traceRef]
}

// traceRef is the flight recorder's verdict on this request's trace,
// set by run() once the trace is offered.
type traceRef struct {
	id     string
	reason obs.RetainReason
}

type reqInfoKey struct{}

// RequestID returns the request ID wrap assigned to this request's
// context ("" outside a wrapped handler).
func RequestID(ctx context.Context) string {
	if ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo); ri != nil {
		return ri.id
	}
	return ""
}

func requestInfo(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// newRequestID returns 16 hex characters of crypto/rand entropy.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// rand.Read never fails on supported platforms; degrade to a
		// recognizable constant rather than aborting the request.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the status code and byte count a handler
// writes, for the access log and the per-route metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming handlers (the
// /v1/events SSE stream) work through the middleware wrapper.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// wrap is the middleware chain applied to every route: request-ID
// assignment, structured logging, per-route request counters and
// latency histograms, and panic containment. Routes registered with
// limited=true (the generate workload) additionally pass the bounded
// admission semaphore — full means an immediate 429 with Retry-After,
// never queuing — run under the per-request timeout, and count in
// inflight, so the gauge reads the requests MaxInFlight bounds and a
// probe or scrape never counts itself.
func (s *Server) wrap(route string, limited bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{id: r.Header.Get("X-Request-ID")}
		if ri.id == "" {
			ri.id = newRequestID()
		}
		w.Header().Set("X-Request-ID", ri.id)
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))

		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.reg.Counter("ccdac_serve_shed_total", obs.Labels{"route": route}).Inc()
				s.reg.Counter("ccdac_serve_requests_total", obs.Labels{"route": route, "code": "429"}).Inc()
				// Honest backoff hint: the EWMA of recent request
				// durations says when a slot plausibly frees. The body
				// also reports the async tier's queue depth — the
				// shed-resistant path for this workload is POST /v1/jobs.
				w.Header().Set("Retry-After", strconv.Itoa(s.shedRetryAfter()))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{
					Error: fmt.Sprintf("serve: %d requests already in flight, shedding (consider POST /v1/jobs)",
						s.opts.MaxInFlight),
					RequestID:  ri.id,
					QueueDepth: s.jobs.Stats().QueueDepth,
				})
				s.log.LogAttrs(r.Context(), slog.LevelWarn, "request shed",
					slog.String("route", route), slog.String("request_id", ri.id))
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
			s.inflight.Add(1)
		}

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				// A handler panic is contained here the same way the
				// pipeline contains stage panics: converted to a typed
				// *PipelineError, reported, never propagated — one bad
				// request must not take the daemon down.
				s.reg.Counter("ccdac_serve_panics_total", obs.Labels{"route": route}).Inc()
				perr := &ccdac.PipelineError{Stage: "internal", Err: fmt.Errorf("recovered panic: %v", rec)}
				s.log.LogAttrs(r.Context(), slog.LevelError, "panic contained",
					slog.String("route", route), slog.String("request_id", ri.id),
					slog.String("panic", fmt.Sprint(rec)), slog.String("stack", string(debug.Stack())))
				if !sw.wrote {
					s.writeError(sw, r, http.StatusInternalServerError, perr)
				} else {
					sw.code = http.StatusInternalServerError
				}
			}
			d := time.Since(start)
			if limited {
				s.observeRequestSeconds(d.Seconds())
				s.inflight.Add(-1)
			}
			s.served.Add(1)
			code := strconv.Itoa(sw.code)
			s.reg.Counter("ccdac_serve_requests_total", obs.Labels{"route": route, "code": code}).Inc()
			hist := s.reg.Histogram("ccdac_serve_request_seconds", obs.Labels{"route": route},
				obs.DefaultDurationBuckets)
			tref := ri.trace.Load()
			if tref != nil {
				// Requests with a retained trace leave an exemplar on their
				// latency bucket: the OpenMetrics link from "p99 spiked" to
				// the exact trace at /debug/traces/{id}.
				hist.ObserveExemplar(d.Seconds(), tref.id)
			} else {
				hist.Observe(d.Seconds())
			}
			level := slog.LevelInfo
			if sw.code >= 500 {
				level = slog.LevelError
			}
			msg := "request"
			slow := s.opts.SlowRequest > 0 && d >= s.opts.SlowRequest
			if slow {
				msg = "slow request"
				if level < slog.LevelWarn {
					level = slog.LevelWarn
				}
			}
			// Healthy-traffic access lines are sampled 1-in-N so WARN and
			// ERROR lines stay visible under load; anything at WARN or
			// above — errors, sheds, slow requests — always logs.
			if level == slog.LevelInfo && sw.code < 400 && s.opts.AccessLogSample > 1 {
				if s.accessSeq.Add(1)%int64(s.opts.AccessLogSample) != 1 {
					s.logsSampled.Add(1)
					return
				}
			}
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.code),
				slog.Int64("bytes", sw.bytes),
				slog.Float64("seconds", d.Seconds()),
				slog.String("request_id", ri.id),
			}
			if id := ri.spanID.Load(); id != 0 {
				attrs = append(attrs, slog.Uint64("span_id", id))
			}
			if tref != nil {
				attrs = append(attrs,
					slog.String("trace_id", tref.id),
					slog.String("trace_reason", string(tref.reason)))
			}
			if slow {
				attrs = append(attrs, slog.String("slow_threshold", s.opts.SlowRequest.String()))
			}
			s.log.LogAttrs(r.Context(), level, msg, attrs...)
		}()
		h.ServeHTTP(sw, r)
	})
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error     string   `json:"error"`
	Stage     string   `json:"stage,omitempty"`
	Warnings  []string `json:"warnings,omitempty"`
	RequestID string   `json:"request_id,omitempty"`
	// QueueDepth reports the async job tier's backlog on 429s (shed
	// and queue overflow), sizing the Retry-After hint for clients.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// observeRequestSeconds folds one limited-route request duration into
// the shed Retry-After estimate (EWMA, alpha 0.2, stored as bits for
// lock-free reads).
func (s *Server) observeRequestSeconds(sec float64) {
	for {
		old := s.reqSec.Load()
		mean := math.Float64frombits(old)
		if mean == 0 {
			mean = sec
		} else {
			mean = 0.8*mean + 0.2*sec
		}
		if s.reqSec.CompareAndSwap(old, math.Float64bits(mean)) {
			return
		}
	}
}

// shedRetryAfter estimates, in whole seconds (min 1), when an
// admission slot frees: the rolling mean request duration.
func (s *Server) shedRetryAfter() int {
	mean := math.Float64frombits(s.reqSec.Load())
	secs := int(math.Ceil(mean))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, err error) {
	resp := errorResponse{Error: err.Error(), RequestID: RequestID(r.Context())}
	var pe *ccdac.PipelineError
	if errors.As(err, &pe) {
		resp.Stage = pe.Stage
		resp.Warnings = pe.Warnings
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already out; an encode/write failure here can
	// only mean the client is gone.
	_ = enc.Encode(v)
}
