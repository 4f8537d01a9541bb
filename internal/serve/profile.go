// Triggered and on-demand profile capture (docs/OBSERVABILITY.md,
// "Profiling"). When the flight recorder retains a trace for cause —
// slow, error, or degraded — record() fires the profcap capturer: a
// bounded CPU-profile window plus goroutine/heap snapshots taken while
// the condition is still hot, persisted through the artifact store and
// linked from the trace's /debug/traces/{id} view. POST /debug/profile
// is the operator path: the same capture, synchronously, on demand.
package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ccdac/internal/obs/profcap"
	"ccdac/internal/store"
)

// profileKinds orders the artifacts of one capture.
var profileKinds = []string{"cpu", "goroutine", "heap"}

// profileIndexKey is the store index key for one artifact of a
// capture: profile/<traceID>/<kind>.
func profileIndexKey(traceID, kind string) string {
	return "profile/" + traceID + "/" + kind
}

// persistCapture queues a finished capture's artifacts for durable
// storage, keyed by the trace that triggered it. Runs on the
// capturer's goroutine (triggered path) or the request goroutine
// (manual path); either way the write-behind queue keeps disk I/O off
// the serving path.
func (s *Server) persistCapture(c profcap.Capture) {
	if s.persist == nil || c.Err != nil || c.TraceID == "" {
		return
	}
	meta := fmt.Sprintf(`{"reason":%q,"trace_id":%q,"window_seconds":%g}`,
		c.Reason, c.TraceID, c.Duration.Seconds())
	for _, kind := range profileKinds {
		blob := c.Artifact(kind)
		if len(blob) == 0 {
			continue
		}
		s.persist.enqueue(persistJob{key: profileIndexKey(c.TraceID, kind), payload: blob, config: []byte(meta)})
	}
}

// profileArtifacts returns the store hashes of a trace's persisted
// profile artifacts (kind → hash), nil when none are indexed.
func (s *Server) profileArtifacts(traceID string) map[string]string {
	if s.store == nil {
		return nil
	}
	var out map[string]string
	for _, kind := range profileKinds {
		if hash, ok := s.store.LookupIndex(profileIndexKey(traceID, kind)); ok {
			if out == nil {
				out = map[string]string{}
			}
			out[kind] = hash
		}
	}
	return out
}

// profileResponse is the JSON body of POST /debug/profile.
type profileResponse struct {
	Status          string  `json:"status"`
	Reason          string  `json:"reason"`
	CaptureID       string  `json:"capture_id"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Artifacts maps kind → content hash; with a store configured each
	// is retrievable via GET /v1/artifacts/{hash} once the write-behind
	// queue drains.
	Artifacts map[string]string `json:"artifacts,omitempty"`
	Bytes     map[string]int64  `json:"bytes,omitempty"`
	Dropped   []string          `json:"dropped,omitempty"`
	Persisted bool              `json:"persisted"`
	Warning   string            `json:"warning,omitempty"`
}

// maxProfileSeconds caps windowed profile collection one second under
// the graceful-drain deadline: an in-flight profile must finish before
// a SIGTERM drain gives up on it.
func (s *Server) maxProfileSeconds() int {
	max := int(s.opts.DrainTimeout/time.Second) - 1
	if max < 1 {
		max = 1
	}
	return max
}

// clampSeconds rewrites an excessive pprof `seconds` parameter down to
// maxProfileSeconds before delegating to the net/http/pprof handler.
func (s *Server) clampSeconds(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		max := s.maxProfileSeconds()
		q := r.URL.Query()
		if sec, err := strconv.Atoi(q.Get("seconds")); err == nil && sec > max {
			q.Set("seconds", strconv.Itoa(max))
			r = r.Clone(r.Context())
			r.URL.RawQuery = q.Encode()
			w.Header().Set("X-Seconds-Clamped", strconv.Itoa(max))
		}
		h.ServeHTTP(w, r)
	})
}

// handleProfile runs one on-demand capture session:
//
//	curl -X POST 'http://localhost:8080/debug/profile?seconds=2'
//
// The capture runs synchronously on this request (the route is exempt
// from the per-request timeout; seconds is clamped below the drain
// deadline). It shares the one-capture-at-a-time gate with triggered
// captures — a concurrent capture means 409, never queueing — but
// ignores the cooldown: an explicit operator request wins over the
// storm damper.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.profcap == nil {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: profile capture disabled"))
		return
	}
	window := s.profcap.Options().Window
	if raw := r.URL.Query().Get("seconds"); raw != "" {
		sec, err := strconv.Atoi(raw)
		if err != nil || sec < 1 {
			s.writeError(w, r, http.StatusBadRequest,
				fmt.Errorf("serve: bad seconds %q (want a positive integer)", raw))
			return
		}
		if max := s.maxProfileSeconds(); sec > max {
			sec = max
			w.Header().Set("X-Seconds-Clamped", strconv.Itoa(max))
		}
		window = time.Duration(sec) * time.Second
	}
	captureID := RequestID(r.Context())
	capd, err := s.profcap.CaptureSync(r.Context(), "manual", captureID, window)
	if err != nil {
		if capd.Err == nil {
			// CaptureSync failed before the window opened: a capture is
			// already in flight.
			s.writeError(w, r, http.StatusConflict, err)
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp := profileResponse{
		Status:          "captured",
		Reason:          capd.Reason,
		CaptureID:       captureID,
		DurationSeconds: capd.Duration.Seconds(),
		Dropped:         capd.Dropped,
		Persisted:       s.persist != nil,
	}
	for _, kind := range profileKinds {
		blob := capd.Artifact(kind)
		if len(blob) == 0 {
			continue
		}
		if resp.Artifacts == nil {
			resp.Artifacts = map[string]string{}
			resp.Bytes = map[string]int64{}
		}
		// The hash is content-derived, so it can be reported before the
		// write-behind queue persists the blob.
		resp.Artifacts[kind] = store.Hash(blob)
		resp.Bytes[kind] = int64(len(blob))
	}
	if s.persist == nil {
		resp.Warning = "no artifact store configured (-store-dir): profiles are returned but not retrievable via /v1/artifacts"
	} else {
		s.persistCapture(capd)
	}
	s.log.Info("profile captured", "capture_id", captureID,
		"window", capd.Duration.String(), "persisted", resp.Persisted)
	writeJSON(w, http.StatusOK, resp)
}
