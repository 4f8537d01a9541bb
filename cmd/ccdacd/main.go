// Command ccdacd is the long-running ccdac generation daemon: it
// serves the constructive flow over HTTP with process-level metrics
// aggregation, health/readiness probes, and pprof endpoints.
//
//	ccdacd -addr :8080 -max-inflight 16 -timeout 60s -cache-bytes 67108864 -store-dir /var/lib/ccdac
//
//	curl -s localhost:8080/v1/generate -d '{"bits":8,"max_parallel":2}'
//	curl -s localhost:8080/v1/generate -d '{"bits":8,"cache":"bypass"}'
//	curl -s localhost:8080/v1/batch -d '{"requests":[{"bits":6},{"bits":8}]}'
//	curl -s localhost:8080/v1/jobs -d '{"kind":"yield","bits":10,"samples":1000000,"spec_inl":0.5}'
//	curl -s localhost:8080/v1/jobs/<id>            # poll; DELETE cancels
//	curl -N  localhost:8080/v1/jobs/<id>/events    # live SSE job progress
//	curl -s localhost:8080/v1/artifacts/<sha256>
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/debug/traces
//	curl -s localhost:8080/debug/traces/<id>?format=otlp
//	curl -N  localhost:8080/v1/events?request_id=<id>   # live SSE span stream
//	curl -sX POST 'localhost:8080/debug/profile?seconds=2'  # on-demand capture
//	go tool pprof localhost:8080/debug/pprof/profile?seconds=10
//
// Every request runs under its own observability trace; its metrics
// fold into one global registry, so /metrics reports fleet totals
// (request rates and latency histograms per route, pipeline runs,
// parallel-wire retry and dense-fallback counters). SIGTERM/SIGINT
// starts a graceful drain: /readyz flips to 503 and in-flight requests
// get -drain to finish. See docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ccdac"
	"ccdac/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent generate requests before 429 shedding (0 = 2x GOMAXPROCS)")
	workers := flag.Int("workers", 0, "per-request analysis worker cap (0 = GOMAXPROCS/max-inflight, negative = serial)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline for /v1/generate")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte bound (0 = 64MiB default, negative = disable caching and singleflight)")
	maxBatch := flag.Int("max-batch", 0, "max sub-requests per /v1/batch call (0 = 64)")
	storeDir := flag.String("store-dir", "", "durable artifact store directory: persists the result cache across restarts and serves /v1/artifacts/{hash} (empty = memory only)")
	traceCap := flag.Int("trace-capacity", 0, "flight-recorder traces kept per retention class (0 = 32, negative = disable /debug/traces)")
	traceSlowQ := flag.Float64("trace-slow-quantile", 0, "latency quantile above which healthy traces are tail-sampled as slow (0 = 0.99)")
	slowRequest := flag.Duration("slow-request", 0, "log WARN with trace correlation for requests slower than this (0 = disabled)")
	profileWindow := flag.Duration("profile-window", 0, "CPU-profile window for triggered/manual captures (0 = 2s, negative = disable profile capture)")
	profileCooldown := flag.Duration("profile-cooldown", 0, "minimum gap between triggered profile captures (0 = 60s)")
	accessLogSample := flag.Int("access-log-sample", 1, "log 1-in-N healthy (2xx, INFO) access lines; WARN+ always logs (1 = log all)")
	jobWorkers := flag.Int("job-workers", 0, "async job tier worker pool size for /v1/jobs (0 = 2)")
	jobQueue := flag.Int("job-queue", 0, "async job queue depth before 429 overflow (0 = 64)")
	jobMaxBatch := flag.Int("job-max-batch", 0, "max yield jobs coalesced into one compatibility micro-batch (0 = 16, 1 = disable)")
	jobMaxWait := flag.Duration("job-max-wait", 0, "max time the first job of a micro-batch waits for company (0 = 25ms, negative = disable)")
	jobCheckpoint := flag.Int("job-checkpoint", 0, "Monte-Carlo samples between durable yield-job checkpoints (0 = 50000)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("ccdacd", ccdac.Version)
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ccdacd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv := serve.New(serve.Options{
		Addr:               *addr,
		MaxInFlight:        *maxInflight,
		Workers:            *workers,
		RequestTimeout:     *timeout,
		DrainTimeout:       *drain,
		CacheMaxBytes:      *cacheBytes,
		MaxBatch:           *maxBatch,
		StoreDir:           *storeDir,
		TraceCapacity:      *traceCap,
		TraceSlowQuantile:  *traceSlowQ,
		SlowRequest:        *slowRequest,
		ProfileWindow:      *profileWindow,
		ProfileCooldown:    *profileCooldown,
		AccessLogSample:    *accessLogSample,
		JobWorkers:         *jobWorkers,
		JobQueueDepth:      *jobQueue,
		JobMaxBatch:        *jobMaxBatch,
		JobMaxWait:         *jobMaxWait,
		JobCheckpointEvery: *jobCheckpoint,
		Logger:             logger,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx); err != nil {
		logger.Error("ccdacd exited", "err", err)
		os.Exit(1)
	}
}
