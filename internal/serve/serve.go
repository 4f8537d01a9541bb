// Package serve is the long-running HTTP front end of the ccdac flow:
// a daemon (cmd/ccdacd) that wraps GenerateContext behind POST
// /v1/generate and turns the per-run observability of internal/obs
// into process-level observability. Every request runs under its own
// trace (isolated spans and metrics, as in library use), and the
// request's frozen snapshot folds into one global registry via
// Registry.Merge, so /metrics exposes fleet totals — throughput,
// latency, degradations, dense-fallback rates — rather than
// per-invocation printouts.
//
// Endpoints:
//
//	POST /v1/generate    JSON config in, JSON metrics summary + warnings out
//	GET  /v1/events      SSE stream of live span events (?request_id= filters)
//	GET  /metrics        Prometheus (or OpenMetrics, via Accept) exposition
//	GET  /healthz        liveness + uptime/inflight/request counts + version
//	GET  /readyz         readiness (503 while draining)
//	GET  /debug/traces   flight-recorder index; /debug/traces/{id} full trace
//	     /debug/pprof/   net/http/pprof profiles
//
// Request middleware (see wrap): request-ID generation, structured
// slog JSON logging correlated to the root span ID, per-route latency
// histograms, panic containment reusing *ccdac.PipelineError, a
// bounded-concurrency semaphore with 429 shedding, and per-request
// timeouts. ListenAndServe drains gracefully when its context is
// canceled (cmd/ccdacd wires that to SIGTERM/SIGINT).
package serve

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccdac/internal/jobs"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
	"ccdac/internal/obs/profcap"
	"ccdac/internal/store"
)

// Options tunes one Server. The zero value is usable: every field has
// a default applied by New.
type Options struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// MaxInFlight bounds concurrent /v1/generate requests; excess
	// requests are shed with 429 rather than queued (default
	// 2×GOMAXPROCS).
	MaxInFlight int
	// Workers is the per-request parallelism budget for the analysis
	// hot loops, composing with MaxInFlight so the daemon fans out to
	// at most MaxInFlight × Workers goroutines instead of every request
	// grabbing GOMAXPROCS. Default max(1, GOMAXPROCS / MaxInFlight);
	// negative forces serial analysis. Requests may ask for fewer
	// workers than this cap, never more.
	Workers int
	// RequestTimeout is the per-request deadline applied to
	// /v1/generate; the pipeline honors it at every stage boundary
	// (default 60s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown: in-flight requests get
	// this long to finish after the serve context is canceled (default
	// 10s).
	DrainTimeout time.Duration
	// Logger receives the structured request log (default: JSON to
	// stderr).
	Logger *slog.Logger
	// CacheMaxBytes bounds the server's result cache: identical
	// canonicalized generate requests are answered from memory, and
	// concurrent identical requests share one pending generation
	// (singleflight). 0 selects the 64 MiB default; negative disables
	// both the cache and the sharing (every request recomputes, as for
	// cache:"bypass"). See docs/PERFORMANCE.md.
	CacheMaxBytes int64
	// MaxBatch caps the number of sub-requests one POST /v1/batch may
	// carry (default 64); larger batches are rejected with 400.
	MaxBatch int
	// StoreDir, when non-empty, backs the result cache with a durable
	// content-addressed artifact store at this directory: cold results
	// persist via write-behind (a generate request never blocks on
	// disk), the cache restarts warm, and GET /v1/artifacts/{hash}
	// serves stored blobs. Job records and checkpoints save
	// synchronously, so a restart recovers every job. If the directory
	// is unusable the daemon still starts, degraded to memory-only,
	// and says so in response warnings. See docs/ROBUSTNESS.md.
	StoreDir string
	// TraceCapacity bounds each retention class of the flight recorder
	// (error / degraded / slow / recent rings; see internal/obs): 0
	// selects the default (32 per class), negative disables trace
	// recording entirely — /debug/traces then 404s.
	TraceCapacity int
	// SlowRequest, when positive, escalates the access log to WARN for
	// requests slower than this threshold, tagging the entry with the
	// root span ID and the retained trace ID for follow-up via
	// /debug/traces/{id}.
	SlowRequest time.Duration
	// ProfileWindow is the CPU-profile duration captured when the
	// flight recorder retains a trace for cause (slow/error/degraded):
	// 0 selects 2s, negative disables triggered capture. Captures are
	// rate-limited (one at a time, ProfileCooldown apart, byte-capped)
	// so they never degrade serving; see internal/obs/profcap.
	ProfileWindow time.Duration
	// ProfileCooldown is the minimum gap between triggered captures
	// (default 60s).
	ProfileCooldown time.Duration
	// AccessLogSample emits only one in N healthy (INFO-level, 2xx)
	// access-log lines (default 1 = log everything). WARN and above —
	// slow requests, degradations, errors — are always logged, so at
	// high QPS the signal survives the volume. Suppressed lines are
	// counted in ccdac_serve_access_log_sampled_total.
	AccessLogSample int
	// JobWorkers sizes the async job tier's worker pool (POST
	// /v1/jobs) — concurrently running job groups, decoupled from
	// MaxInFlight (default 2). See internal/jobs.
	JobWorkers int
	// JobQueueDepth bounds accepted-but-unstarted jobs; submissions
	// beyond it get 429 with queue depth and an honest Retry-After
	// (default 64).
	JobQueueDepth int
	// JobMaxBatch caps a compatibility micro-batch of yield jobs
	// sharing one expensive layout prefix (default 16; <= 1 disables
	// coalescing); JobMaxWait bounds how long the first job of a batch
	// waits for company (default 25ms, negative disables).
	JobMaxBatch int
	JobMaxWait  time.Duration
	// JobCheckpointEvery is the default Monte-Carlo sample block
	// between durable checkpoints of long yield jobs (default 50000).
	JobCheckpointEvery int
}

// Server is one daemon instance: the route mux, the process-level
// metrics registry, and the admission state.
type Server struct {
	opts Options
	log  *slog.Logger
	reg  *obs.Registry
	mux  *http.ServeMux

	sem      chan struct{}
	inflight atomic.Int64
	served   atomic.Int64
	ready    atomic.Bool
	start    time.Time

	// cache answers repeat generate requests from memory and collapses
	// concurrent identical requests into one generation (nil when
	// Options.CacheMaxBytes < 0; see cache.go).
	cache *memo.Cache

	// store is the durable artifact tier behind the result cache (nil
	// without Options.StoreDir); persist is its write-behind queue.
	store   *store.Store
	persist *persister

	// recorder is the flight recorder of recently completed request
	// traces (nil when Options.TraceCapacity < 0); bus streams live span
	// events to /v1/events subscribers.
	recorder *obs.Recorder
	bus      *obs.Bus

	// profcap captures bounded profile windows when the recorder
	// retains a trace for cause (nil when Options.ProfileWindow < 0).
	profcap *profcap.Capturer

	accessSeq   atomic.Int64
	logsSampled atomic.Int64

	// jobs is the async job tier (queue + coalescer + worker pool)
	// behind /v1/jobs.
	jobs *jobs.Manager
	// reqSec tracks an EWMA of limited-route request seconds (as
	// math.Float64bits) so shed 429s can carry an honest Retry-After.
	reqSec atomic.Uint64

	mu   sync.Mutex
	addr string

	// onTrace, when set (tests), observes each generate request's
	// finished trace after its metrics merged into the global registry.
	onTrace func(*obs.Trace)
}

// New builds a Server with its routes registered. The server is ready
// (readyz 200) from construction; ListenAndServe flips it unready when
// draining.
func New(opts Options) *Server {
	if opts.Addr == "" {
		opts.Addr = ":8080"
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0) / opts.MaxInFlight
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 60 * time.Second
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if opts.CacheMaxBytes == 0 {
		opts.CacheMaxBytes = 64 << 20
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 64
	}
	s := &Server{
		opts:  opts,
		log:   opts.Logger,
		reg:   obs.NewRegistry(),
		mux:   http.NewServeMux(),
		sem:   make(chan struct{}, opts.MaxInFlight),
		start: time.Now(),
	}
	if opts.CacheMaxBytes > 0 {
		// Per-server, not globally registered: stats are injected into
		// this server's /metrics by handleMetrics.
		s.cache = memo.New("serve_results", opts.CacheMaxBytes)
	}
	if opts.StoreDir != "" {
		st, err := store.Open(opts.StoreDir)
		if err != nil {
			// The daemon must come up even on a hostile disk: run
			// memory-only, flag the degradation in /metrics and response
			// warnings, and keep serving.
			s.log.Warn("artifact store unavailable, degrading to memory-only",
				"dir", opts.StoreDir, "err", err)
			st = store.Degrade(err)
		}
		s.store = st
		s.persist = newPersister(st)
		if n := st.IndexLen(); n > 0 {
			s.log.Info("artifact store opened", "dir", opts.StoreDir, "indexed_results", n)
		}
	}
	if opts.TraceCapacity >= 0 {
		s.recorder = obs.NewRecorder(obs.RecorderOptions{Capacity: opts.TraceCapacity})
	}
	s.bus = obs.NewBus()
	if opts.ProfileWindow >= 0 {
		s.profcap = profcap.New(profcap.Options{
			Window:   opts.ProfileWindow,
			Cooldown: opts.ProfileCooldown,
		})
	}
	// The job tier shares the server's bus (SSE), registry (metrics),
	// log (at WARN) and — when a store is configured — its durability
	// path. Its intra-job compute budget is the same per-request
	// Workers cap; its worker count is the job-level concurrency knob.
	var jp jobs.Persist
	if s.store != nil {
		jp = &jobStore{s: s}
	}
	s.jobs = jobs.New(jobs.Options{
		Workers:         opts.JobWorkers,
		QueueDepth:      opts.JobQueueDepth,
		MaxBatch:        opts.JobMaxBatch,
		MaxWait:         opts.JobMaxWait,
		CheckpointEvery: opts.JobCheckpointEvery,
		ComputeWorkers:  opts.Workers,
		Memo:            opts.CacheMaxBytes >= 0,
		Bus:             s.bus,
		Registry:        s.reg,
		Persist:         jp,
		Logger:          slog.NewLogLogger(s.log.Handler(), slog.LevelWarn),
	})
	if s.store != nil {
		s.recoverJobs()
	}
	s.ready.Store(true)

	s.mux.Handle("POST /v1/generate", s.wrap("generate", true, http.HandlerFunc(s.handleGenerate)))
	s.mux.Handle("POST /v1/batch", s.wrap("batch", true, http.HandlerFunc(s.handleBatch)))
	s.mux.Handle("POST /v1/jobs", s.wrap("jobs", false, http.HandlerFunc(s.handleJobSubmit)))
	s.mux.Handle("GET /v1/jobs/{id}", s.wrap("jobs", false, http.HandlerFunc(s.handleJobGet)))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.wrap("jobs", false, http.HandlerFunc(s.handleJobCancel)))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.wrap("job_events", false, http.HandlerFunc(s.handleJobEvents)))
	s.mux.Handle("GET /v1/artifacts/{hash}", s.wrap("artifacts", false, http.HandlerFunc(s.handleArtifact)))
	s.mux.Handle("GET /v1/events", s.wrap("events", false, http.HandlerFunc(s.handleEvents)))
	s.mux.Handle("GET /debug/traces", s.wrap("traces", false, http.HandlerFunc(s.handleTraceIndex)))
	s.mux.Handle("GET /debug/traces/{id}", s.wrap("traces", false, http.HandlerFunc(s.handleTraceGet)))
	s.mux.Handle("GET /metrics", s.wrap("metrics", false, http.HandlerFunc(s.handleMetrics)))
	s.mux.Handle("GET /healthz", s.wrap("healthz", false, http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("GET /readyz", s.wrap("readyz", false, http.HandlerFunc(s.handleReadyz)))
	s.mux.Handle("POST /debug/profile", s.wrap("profile", false, http.HandlerFunc(s.handleProfile)))
	// Profiling routes are deliberately non-limited: wrap applies the
	// per-request timeout only to limited routes, so a CPU profile
	// longer than RequestTimeout is never killed mid-capture. The
	// windowed collectors (profile, trace) instead get their `seconds`
	// parameter clamped below the graceful-drain deadline, so a pending
	// profile cannot stall SIGTERM drain either.
	s.mux.Handle("/debug/pprof/", s.wrap("pprof", false, http.HandlerFunc(pprof.Index)))
	s.mux.Handle("/debug/pprof/cmdline", s.wrap("pprof", false, http.HandlerFunc(pprof.Cmdline)))
	s.mux.Handle("/debug/pprof/profile", s.wrap("pprof", false, s.clampSeconds(http.HandlerFunc(pprof.Profile))))
	s.mux.Handle("/debug/pprof/symbol", s.wrap("pprof", false, http.HandlerFunc(pprof.Symbol)))
	s.mux.Handle("/debug/pprof/trace", s.wrap("pprof", false, s.clampSeconds(http.HandlerFunc(pprof.Trace))))
	return s
}

// Handler returns the server's full route tree (for tests and for
// embedding behind an outer mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the process-level metrics registry every request's
// per-trace snapshot merges into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Addr returns the bound listen address once ListenAndServe has a
// listener ("" before that) — useful with Addr ":0".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// ListenAndServe serves until ctx is canceled, then drains: readiness
// flips to 503 (load balancers stop sending), in-flight requests get
// DrainTimeout to finish, and the listener closes. It returns nil on a
// clean drain, the listen/serve error otherwise.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.addr = ln.Addr().String()
	s.mu.Unlock()
	hs := &http.Server{
		Handler:     s.mux,
		BaseContext: func(net.Listener) context.Context { return context.Background() },
	}
	s.log.Info("ccdacd listening", "addr", s.Addr(), "max_inflight", s.opts.MaxInFlight,
		"workers", s.opts.Workers, "request_timeout", s.opts.RequestTimeout.String())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.ready.Store(false)
		s.log.Info("draining", "inflight", s.inflight.Load(), "drain_timeout", s.opts.DrainTimeout.String())
		sctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		// Flush the write-behind queue so results computed during the
		// drain restart warm next boot.
		s.Close()
		s.log.Info("drained", "requests_served", s.served.Load())
		return nil
	}
}

// Close flushes and stops the durable-store write-behind queue. It is
// called automatically at the end of a graceful drain; tests that use
// Handler directly call it to make pending persists visible before
// reopening the store directory.
func (s *Server) Close() {
	// The capturer goes first: closing it interrupts any open profile
	// window (releasing the process-global CPU profiler) and its done
	// callback may still enqueue artifacts, which the persister below
	// then flushes.
	if s.profcap != nil {
		s.profcap.Close()
	}
	// Stopping the job tier saves the records of interrupted jobs
	// (non-terminal, so the next boot resumes them) before it returns.
	if s.jobs != nil {
		s.jobs.Close()
	}
	if s.persist != nil {
		s.persist.close()
	}
}

// Jobs exposes the async job tier (tests and the CLI wiring).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// FlushStore blocks until every queued result persist has reached the
// store, without stopping the queue (tests).
func (s *Server) FlushStore() {
	if s.persist != nil {
		s.persist.flush()
	}
}

// StoreStats returns the artifact store's health accounting (zero
// Stats and false when no store is configured).
func (s *Server) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}
