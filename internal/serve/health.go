package serve

import (
	"net/http"
	"runtime"
	"strings"
	"time"

	"ccdac"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
)

// hitRatio is hits/(hits+misses), 0 before any lookup.
func hitRatio(hits, misses int64) float64 {
	if total := hits + misses; total > 0 {
		return float64(hits) / float64(total)
	}
	return 0
}

// handleMetrics exposes the global registry in the Prometheus text
// format. Point-in-time process gauges (uptime, in-flight requests,
// goroutines) are set at scrape time from their authoritative sources
// rather than maintained on the request path; cache statistics are
// likewise injected at scrape time from the caches' own counters
// (absolute values, stateless — never merged, so never double-counted).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge("ccdac_serve_uptime_seconds", nil).Set(time.Since(s.start).Seconds())
	s.reg.Gauge("ccdac_serve_inflight", nil).Set(float64(s.inflight.Load()))
	s.reg.Gauge("ccdac_serve_goroutines", nil).Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("ccdac_build_info",
		obs.Labels{"version": ccdac.Version, "go_version": runtime.Version()}).Set(1)
	snap := s.reg.Snapshot()
	for _, st := range memo.Snapshot() {
		labels := obs.Labels{"cache": st.Name}
		snap.Counters[obs.SeriesKey("ccdac_memo_hits_total", labels)] = st.Hits
		snap.Counters[obs.SeriesKey("ccdac_memo_misses_total", labels)] = st.Misses
		snap.Counters[obs.SeriesKey("ccdac_memo_evictions_total", labels)] = st.Evictions
		snap.Counters[obs.SeriesKey("ccdac_memo_shared_total", labels)] = st.Shared
		snap.Gauges[obs.SeriesKey("ccdac_memo_waiters", labels)] = float64(st.Waiters)
		snap.Gauges[obs.SeriesKey("ccdac_memo_bytes", labels)] = float64(st.Bytes)
		snap.Gauges[obs.SeriesKey("ccdac_memo_entries", labels)] = float64(st.Entries)
		snap.Gauges[obs.SeriesKey("ccdac_memo_hit_ratio", labels)] = hitRatio(st.Hits, st.Misses)
	}
	if st, ok := s.cacheStats(); ok {
		snap.Counters["ccdac_serve_cache_hits_total"] = st.Hits
		snap.Counters["ccdac_serve_cache_misses_total"] = st.Misses
		snap.Counters["ccdac_serve_cache_evictions_total"] = st.Evictions
		snap.Gauges["ccdac_serve_cache_bytes"] = float64(st.Bytes)
		snap.Gauges["ccdac_serve_cache_entries"] = float64(st.Entries)
		snap.Gauges["ccdac_serve_cache_waiters"] = float64(st.Waiters)
		snap.Gauges["ccdac_serve_cache_hit_ratio"] = hitRatio(st.Hits, st.Misses)
	}
	if st, ok := s.StoreStats(); ok {
		snap.Counters["ccdac_store_writes_total"] = st.Writes
		snap.Counters["ccdac_store_reads_total"] = st.Reads
		snap.Counters["ccdac_store_hits_total"] = st.Hits
		snap.Counters["ccdac_store_retries_total"] = st.Retries
		snap.Counters["ccdac_store_corruptions_quarantined_total"] = st.CorruptionsQuarantined
		snap.Counters["ccdac_store_degraded_ops_total"] = st.DegradedOps
		snap.Counters["ccdac_store_persist_dropped_total"] = s.persist.dropped.Load()
		snap.Gauges["ccdac_store_index_entries"] = float64(st.IndexEntries)
		snap.Gauges["ccdac_store_provenance_records"] = float64(st.ProvenanceRecords)
		snap.Gauges["ccdac_store_mem_bytes"] = float64(st.MemBytes)
		degraded := 0.0
		if st.Degraded {
			degraded = 1
		}
		snap.Gauges["ccdac_store_degraded"] = degraded
	}
	if s.recorder != nil {
		st := s.recorder.Stats()
		snap.Counters["ccdac_obs_traces_offered_total"] = st.Offered
		snap.Counters["ccdac_obs_traces_evicted_total"] = st.Evicted
		for reason, n := range st.Retained {
			snap.Counters[obs.SeriesKey("ccdac_obs_traces_retained_total",
				obs.Labels{"reason": string(reason)})] = n
		}
		snap.Gauges["ccdac_obs_traces_live"] = float64(st.Live)
		snap.Gauges["ccdac_obs_trace_slow_threshold_seconds"] = st.SlowThresholdSeconds
	}
	bst := s.bus.Stats()
	snap.Counters["ccdac_obs_events_published_total"] = int64(bst.Published)
	snap.Counters["ccdac_obs_events_dropped_total"] = int64(bst.Dropped)
	snap.Gauges["ccdac_obs_event_subscribers"] = float64(bst.Subscribers)
	if s.profcap != nil {
		st := s.profcap.Stats()
		snap.Counters["ccdac_profcap_triggered_total"] = st.Triggered
		snap.Counters["ccdac_profcap_captured_total"] = st.Captured
		snap.Counters["ccdac_profcap_suppressed_busy_total"] = st.SuppressedBusy
		snap.Counters["ccdac_profcap_suppressed_cooldown_total"] = st.SuppressedCooldown
		snap.Counters["ccdac_profcap_over_cap_total"] = st.OverCap
		snap.Counters["ccdac_profcap_errors_total"] = st.Errors
		busy := 0.0
		if s.profcap.Busy() {
			busy = 1
		}
		snap.Gauges["ccdac_profcap_busy"] = busy
	}
	if s.jobs != nil {
		jst := s.jobs.Stats()
		snap.Gauges["ccdac_jobs_queue_depth"] = float64(jst.QueueDepth)
		snap.Gauges["ccdac_jobs_running"] = float64(jst.Running)
		snap.Gauges["ccdac_jobs_workers"] = float64(jst.Workers)
		snap.Gauges["ccdac_jobs_queue_wait_seconds"] = jst.MeanQueueWaitSeconds
		snap.Gauges["ccdac_jobs_job_seconds_mean"] = jst.MeanJobSeconds
		snap.Counters["ccdac_jobs_submitted_total"] = jst.Submitted
		snap.Counters["ccdac_jobs_done_total"] = jst.Done
		snap.Counters["ccdac_jobs_failed_total"] = jst.Failed
		snap.Counters["ccdac_jobs_canceled_total"] = jst.Canceled
		snap.Counters["ccdac_jobs_overflow_total"] = jst.Overflow
		snap.Counters["ccdac_jobs_groups_total"] = jst.Groups
		snap.Counters["ccdac_jobs_coalesced_total"] = jst.Coalesced
		snap.Counters["ccdac_jobs_prefix_runs_saved_total"] = jst.PrefixRunsSaved
		snap.Counters["ccdac_jobs_checkpoints_total"] = jst.Checkpoints
		snap.Counters["ccdac_jobs_resumed_total"] = jst.Resumed
	}
	snap.Counters["ccdac_serve_access_log_sampled_total"] = s.logsSampled.Load()

	// Content negotiation: scrapers asking for OpenMetrics (Prometheus
	// does, when exemplar ingestion is on) get the exemplar-bearing
	// exposition; everyone else gets the classic text format.
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := obs.WriteOpenMetrics(w, snap); err != nil {
			s.log.Error("metrics write failed", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, snap); err != nil {
		// Headers are out; nothing to do but log — the scraper will see
		// the truncated body fail to parse and retry.
		s.log.Error("metrics write failed", "err", err)
	}
}

// healthzResponse is the liveness payload: the process is up and this
// is what it has been doing.
type healthzResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"inflight"`
	Served        int64   `json:"served"`
	MaxInFlight   int     `json:"max_inflight"`
	GoVersion     string  `json:"go_version"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		Version:       ccdac.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inflight.Load(),
		Served:        s.served.Load(),
		MaxInFlight:   s.opts.MaxInFlight,
		GoVersion:     runtime.Version(),
	})
}

// handleReadyz reports whether the daemon accepts new work: 200 while
// serving, 503 once draining has begun so load balancers stop routing
// to this instance while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}
