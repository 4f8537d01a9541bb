// Serve-side result caching (docs/PERFORMANCE.md, "Serve-side result
// cache"): a byte-bounded memo of finished generate results keyed by
// the canonicalized request. Concurrent identical requests share the
// entry's pending generation (memo.Cache.Do), so they collapse into one.
//
// Cancellation semantics: the generation runs detached from any single
// request's context, bounded only by the server's RequestTimeout. A
// client that gives up merely unsubscribes; the generation is aborted
// only when its last waiter leaves, so a canceled leader hands the work
// off to the followers instead of poisoning them with its cancellation.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"time"

	"ccdac"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
)

// cachedResult is the cacheable portion of a generate response: the
// deterministic outputs, none of the per-request envelope.
type cachedResult struct {
	Metrics  ccdac.Metrics
	Warnings []string
}

// bytes estimates the entry's cache charge.
func (c *cachedResult) bytes() int64 {
	n := int64(320) + int64(len(c.Metrics.ParallelWires))*8
	for _, w := range c.Warnings {
		n += int64(len(w)) + 16
	}
	return n
}

// genOutcome is what one generate execution path hands the HTTP layer.
type genOutcome struct {
	metrics  ccdac.Metrics
	warnings []string
	// counters is the run's private counter snapshot, nil when no
	// generation ran on behalf of this request (cache hit, shared
	// generation) — responses must not report counters that were
	// merged into the global registry by some other request's run.
	counters map[string]int64
	status   string // "" | "cold" | "hit" | "shared" | "bypass"
}

// cacheKey is the request's result identity: the job tier's generate
// key over the same fields, so bodies that differ only in JSON field
// order, omitted defaults or knobs that cannot change the result
// (worker budget, cache directive) share one entry.
func cacheKey(req GenerateRequest) string { return req.spec().GenerateKey() }

// generate routes one request through the result cache. ri (may be
// nil) receives the root span ID of whatever run this request
// observes, for access-log correlation.
func (s *Server) generate(ctx context.Context, req GenerateRequest, cfg ccdac.Config, ri *reqInfo) (*genOutcome, error) {
	if s.cache == nil || cfg.Validate() != nil {
		// Caching disabled server-wide (the pre-cache behavior,
		// verbatim), or a config the pipeline refuses on entry: it never
		// reaches the cache, and its run still leaves an error trace.
		return s.run(ctx, req, cfg, "", ri)
	}
	if req.Cache == "bypass" {
		// An explicit bypass recomputes for real: no result cache, no
		// shared generation, no stage memoization.
		return s.run(ctx, req, cfg, "bypass", ri)
	}
	key := cacheKey(req)
	// own is the outcome of the computation this request opened, if
	// any; only that request reports the run's counters.
	var own *genOutcome
	v, st, err := s.cache.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		if cr := new(cachedResult); s.loadJSON(key, cr) {
			// Warm restart: the durable tier has this result from a
			// previous process.
			own = &genOutcome{metrics: cr.Metrics, warnings: cr.Warnings, status: "hit"}
			return cr, cr.bytes(), nil
		}
		// The server's per-request timeout bounds the detached compute.
		ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
		// Cold generations arm the stage caches: overlapping
		// configurations (same placement under different theta counts,
		// same layout under a different tech node) reuse intermediates.
		cfg.Memo = true
		out, err := s.run(ctx, req, cfg, "cold", ri)
		if err != nil {
			return nil, 0, err
		}
		cr := &cachedResult{Metrics: out.metrics, Warnings: out.warnings}
		if s.persist != nil {
			// Write-behind: durability happens off the request path; a
			// full queue or a down disk costs persistence, never latency
			// or the request itself.
			s.persist.enqueue(persistJob{key: key, payload: cr, config: req, seed: req.AnnealSeed})
		}
		own = out
		return cr, cr.bytes(), nil
	})
	switch {
	case err != nil:
		return nil, err
	case st == memo.Cold:
		return own, nil
	case st == memo.Shared:
		s.reg.Counter("ccdac_serve_singleflight_shared_total", nil).Inc()
	}
	cr := v.(*cachedResult)
	return &genOutcome{metrics: cr.Metrics, warnings: cr.Warnings, status: st.String()}, nil
}

// run executes one generation under its own request-private trace and
// folds the trace's metrics into the process registry — on success, on
// pipeline failure, and on cancellation alike, so partial effort is
// never invisible to /metrics. The finished trace is offered to the
// flight recorder (tail sampling decides whether it survives) and, when
// retained for cause, persisted to the artifact store as an OTLP blob.
func (s *Server) run(ctx context.Context, req GenerateRequest, cfg ccdac.Config, status string, ri *reqInfo) (*genOutcome, error) {
	tr := obs.New(obs.Options{PprofLabels: true})
	if ri != nil {
		// The request ID is the trace's correlation tag: it is what
		// /v1/events subscribers filter on.
		tr.SetTag(ri.id)
	}
	tr.AttachBus(s.bus)
	ctx = obs.WithTrace(ctx, tr)
	start := time.Now()
	ctx, root := obs.StartSpan(ctx, "serve.generate")
	if ri != nil {
		root.SetAttr("request_id", ri.id)
		ri.spanID.Store(root.ID())
	}
	if status != "" {
		root.SetAttr("cache", status)
	}

	res, err := req.spec().Generate(ctx, cfg)

	root.Fail(err)
	root.End()
	tr.Finish()
	snap := tr.Registry().Snapshot()
	s.reg.Merge(snap)
	s.record(tr, req, start, err, res, ri)
	if s.onTrace != nil {
		s.onTrace(tr)
	}
	if err != nil {
		return nil, err
	}
	return &genOutcome{
		metrics:  res.Metrics,
		warnings: res.Warnings,
		counters: snap.Counters,
		status:   status,
	}, nil
}

// record offers the finished trace to the flight recorder, publishes
// the retention decision to the request (for exemplars and the slow-
// request log), and queues interesting traces — anything retained for
// cause, not merely recency — for durable OTLP persistence.
func (s *Server) record(tr *obs.Trace, req GenerateRequest, start time.Time, err error, res *ccdac.Result, ri *reqInfo) {
	if s.recorder == nil {
		return
	}
	rt := obs.RecordedTrace{
		ID: tr.ID(), Tag: tr.Tag(), Name: "serve.generate",
		Start: start, Duration: time.Since(start),
		Spans: tr.Spans(),
	}
	if err != nil {
		rt.Err = err.Error()
		var pe *ccdac.PipelineError
		if errors.As(err, &pe) {
			rt.Warnings = len(pe.Warnings)
		}
	} else if res != nil {
		rt.Warnings = len(res.Warnings)
	}
	reason := s.recorder.Offer(rt)
	if ri != nil {
		ri.trace.Store(&traceRef{id: rt.ID, reason: reason})
	}
	if s.persist != nil && reason != obs.ReasonRecent {
		var buf bytes.Buffer
		if obs.WriteOTLP(&buf, "ccdacd", rt.ID, rt.Spans) == nil {
			s.persist.enqueue(persistJob{key: traceIndexKey(rt.ID), payload: buf.Bytes(), config: req, seed: req.AnnealSeed})
		}
	}
	// A for-cause retention also arms a triggered profile capture: the
	// condition that made this trace interesting (slow path, error) is
	// likely still hot, and the capturer's busy/cooldown gates keep a
	// burst of retentions from costing more than one window. A
	// triggered capture's only consumer is the artifact store — without
	// one there is nowhere to put the profile, so triggers stay
	// disarmed and only the manual POST /debug/profile path (which
	// returns artifacts in the response body) remains.
	if s.profcap != nil && s.persist != nil && reason != obs.ReasonRecent {
		s.profcap.Trigger(string(reason), rt.ID, s.persistCapture)
	}
}

// cacheStats surfaces the result cache's accounting, pending waiters
// included, for /metrics injection and tests.
func (s *Server) cacheStats() (memo.Stats, bool) {
	if s.cache == nil {
		return memo.Stats{}, false
	}
	return s.cache.Stats(), true
}

// loadJSON decodes the JSON artifact indexed under key into v, reporting
// whether it could. Without a store, and for a missing, corrupt (the
// store quarantines it) or undecodable artifact, it reports false and
// the caller recomputes or skips: the store can lose data safely, it
// can only never serve bad data.
func (s *Server) loadJSON(key string, v any) bool {
	if s.store == nil {
		return false
	}
	data, err := s.store.Load(key)
	return err == nil && json.Unmarshal(data, v) == nil
}
