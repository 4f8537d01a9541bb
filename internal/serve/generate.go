package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ccdac"
	"ccdac/internal/jobs"
)

// GenerateRequest is the JSON body of POST /v1/generate, mirroring
// ccdac.Config field for field (tracing is managed server-side and is
// not a client knob), plus the cache directive and the compatibility
// fft field. Unknown fields are rejected with 400.
type GenerateRequest struct {
	Bits             int    `json:"bits"`
	Style            string `json:"style,omitempty"`
	CoreBits         int    `json:"core_bits,omitempty"`
	BlockCells       int    `json:"block_cells,omitempty"`
	MaxParallel      int    `json:"max_parallel,omitempty"`
	AnnealSeed       int64  `json:"anneal_seed,omitempty"`
	AnnealMoves      int    `json:"anneal_moves,omitempty"`
	ThetaSteps       int    `json:"theta_steps,omitempty"`
	SkipNonlinearity bool   `json:"skip_nonlinearity,omitempty"`
	TechNode         string `json:"tech_node,omitempty"`
	// Workers asks for an analysis parallelism budget below the
	// server's per-request cap (Options.Workers); larger requests are
	// clamped to the cap so one client cannot oversubscribe the host.
	// 0 takes the server default, negative forces serial analysis.
	Workers int `json:"workers,omitempty"`
	// BestBC sweeps the block-chessboard structure grid and returns the
	// best candidate (GenerateBestBC) instead of one fixed structure.
	BestBC bool `json:"best_bc,omitempty"`
	// Cache selects the result-cache policy for this request: "" or
	// "default" uses the server cache and shares pending generations;
	// "bypass" forces a full recomputation (no cache read, no shared
	// generation, no stage memoization) — the knob for "I changed the
	// binary, show me fresh numbers". Anything else is a 400.
	Cache string `json:"cache,omitempty"`
	// FFT is accepted for compatibility and changes nothing: every
	// generate builds its covariance through QuadForms, so "auto" and
	// "off" share one result-cache entry. Anything else is a 400. The
	// field still selects a yield job's sampler (jobs.Spec.FFT).
	FFT string `json:"fft,omitempty"`
}

// spec maps the request onto a generate job spec, field for field: the
// one mapping through which serve takes the job tier's config, result
// key and generate dispatch. Workers and Cache are serve's own knobs.
func (g GenerateRequest) spec() jobs.Spec {
	return jobs.Spec{
		Kind:             jobs.KindGenerate,
		Bits:             g.Bits,
		Style:            g.Style,
		CoreBits:         g.CoreBits,
		BlockCells:       g.BlockCells,
		MaxParallel:      g.MaxParallel,
		AnnealSeed:       g.AnnealSeed,
		AnnealMoves:      g.AnnealMoves,
		TechNode:         g.TechNode,
		FFT:              g.FFT,
		ThetaSteps:       g.ThetaSteps,
		SkipNonlinearity: g.SkipNonlinearity,
		BestBC:           g.BestBC,
	}
}

// GenerateResponse is the JSON body of a successful generate request:
// the run's metrics summary, its degradation warnings, and the
// request-private counter snapshot that was merged into the global
// registry (so clients — and the zero-dropped-merges test — can
// reconcile per-request numbers against /metrics totals).
type GenerateResponse struct {
	RequestID      string  `json:"request_id"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// CacheStatus reports how the result was produced: "cold" (this
	// request ran the generation), "hit" (served from the result
	// cache), "shared" (joined another request's in-flight generation),
	// "bypass" (cache:"bypass" forced a recomputation), or "" (server
	// cache disabled).
	CacheStatus string           `json:"cache_status,omitempty"`
	Metrics     ccdac.Metrics    `json:"metrics"`
	Warnings    []string         `json:"warnings,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// requestConfig checks one request's cache and fft directives and maps
// it onto the pipeline config under the server's worker cap. An
// unknown directive is the client's fault: the error maps to 400
// through statusOf. Field bounds are checked by generate, before the
// cache.
func (s *Server) requestConfig(req GenerateRequest) (ccdac.Config, error) {
	if req.Cache != "" && req.Cache != "default" && req.Cache != "bypass" {
		return ccdac.Config{}, fmt.Errorf("serve: %w: unknown cache directive %q (want \"default\" or \"bypass\")",
			ccdac.ErrConfig, req.Cache)
	}
	if err := jobs.CheckFFT(req.FFT); err != nil {
		return ccdac.Config{}, err
	}
	// Per-request worker budget: the server's cap, unless the request
	// asked for less (a negative ask means serial analysis).
	workers := s.opts.Workers
	if req.Workers != 0 && req.Workers < workers {
		workers = req.Workers
	}
	return req.spec().Config(workers, false), nil
}

// handleGenerate decodes and validates one request and routes it
// through the result cache (see cache.go); the generation itself runs
// under a request-private trace whose metrics fold into the process
// registry.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req GenerateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: decoding request body: %w", err))
		return
	}
	cfg, err := s.requestConfig(req)
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}

	start := time.Now()
	out, err := s.generate(r.Context(), req, cfg, requestInfo(r.Context()))
	if err != nil {
		s.writeError(w, r, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.response(RequestID(r.Context()), start, out))
}

// response builds the success body of one generation, for
// /v1/generate and for every /v1/batch item alike, so both carry the
// store-degradation warning.
func (s *Server) response(id string, start time.Time, out *genOutcome) *GenerateResponse {
	return &GenerateResponse{
		RequestID:      id,
		ElapsedSeconds: time.Since(start).Seconds(),
		CacheStatus:    out.status,
		Metrics:        out.metrics,
		Warnings:       s.withStoreWarning(out.warnings),
		Counters:       out.counters,
	}
}

// withStoreWarning appends the structural degradation warning while
// the artifact store is running memory-only — the same pattern as the
// pipeline's dense covariance fallback: the request succeeds, and the
// response says what was given up (here, durability). The input slice
// is never mutated (it may be shared with the result cache).
func (s *Server) withStoreWarning(warnings []string) []string {
	if s.store == nil {
		return warnings
	}
	degraded, derr := s.store.Degraded()
	if !degraded {
		return warnings
	}
	msg := "store: degraded to memory-only operation (results are not persisted)"
	if derr != nil {
		msg += ": " + derr.Error()
	}
	out := make([]string, 0, len(warnings)+1)
	out = append(out, warnings...)
	return append(out, msg)
}

// statusOf maps a pipeline error to its HTTP status: invalid configs
// are the client's fault, deadline hits are gateway timeouts, client
// cancellations use nginx's 499 convention, everything else is a 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ccdac.ErrConfig):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusInternalServerError
	}
}
