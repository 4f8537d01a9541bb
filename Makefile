# Tier-1 verification for the ccdac repo. `make check` is the gate a
# change must pass; the individual targets exist for quick iteration.

GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X ccdac.Version=$(VERSION)"

.PHONY: check fmt vet build test race fuzz bench bench-obs bench-analyze bench-smoke bench-cache bench-store store-smoke bench-jobs jobs-smoke bench-diff bench-update install

check: fmt vet build race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz the public API's never-panic contract (30s).
fuzz:
	$(GO) test -fuzz=FuzzGenerate -fuzztime=30s -run '^$$' .
	$(GO) test -fuzz=FuzzCovarianceEngines -fuzztime=30s -run '^$$' ./internal/variation

# Observability benchmark: tracing overhead (disabled vs traced vs the
# full telemetry pipeline — span bus with a live subscriber plus flight
# recorder) and a per-stage wall-time report written to BENCH_obs.json.
bench-obs:
	BENCH_OBS_OUT=BENCH_obs.json $(GO) test -run '^TestBenchObs$$' \
		-bench '^BenchmarkTraceOverhead$$' -benchtime 5x .

# Back-compat alias for bench-obs.
bench: bench-obs

# Version-stamped binaries (ccdac_build_info / healthz version field).
install:
	$(GO) install $(LDFLAGS) ./cmd/...

# Analysis hot-path benchmark: times the memoized parallel covariance
# build against a seed-style serial reference and the binned coupling
# sweep against the quadratic one, writing the speedups and scaling
# exponents to BENCH_analyze.json (see docs/PERFORMANCE.md).
bench-analyze:
	BENCH_ANALYZE_OUT=BENCH_analyze.json $(GO) test \
		-run '^TestBenchAnalyze$$' -count=1 -v .

# One-iteration pass over the hot-path micro-benchmarks: proves they
# still compile and run without paying full benchtime (used by CI).
bench-smoke:
	$(GO) test -run '^$$' -count=1 -benchtime 1x \
		-bench '^(BenchmarkAnalyzeCov|BenchmarkCoupleSweep|BenchmarkExtractBits|BenchmarkElmoreTree|BenchmarkPromotionLoop|BenchmarkThetaSweepRouted|BenchmarkMonteCarlo)$$' .

# Caching benchmark: serve cold-vs-warm, memoized sensitivity sweep
# (medians of repeated requests and sweeps), singleflight dedup factor,
# and CG solver allocations, written to BENCH_cache.json. Asserts
# warm-hit speedup > 1, one generation for 8
# concurrent identical requests, and pooled-scratch solver allocs;
# doubles as CI's cache-correctness smoke (see docs/PERFORMANCE.md).
bench-cache:
	BENCH_CACHE_OUT=$(CURDIR)/BENCH_cache.json $(GO) test \
		-run '^TestBenchCache$$' -count=1 -v ./internal/serve

# Durable-store benchmark: fsync-backed write throughput, verified-read
# throughput, and the warm-restart hit rate, written to BENCH_store.json.
# Asserts a perfect warm-restart hit rate; doubles as CI's store smoke
# alongside scripts/store_smoke.sh (see docs/ROBUSTNESS.md).
bench-store:
	BENCH_STORE_OUT=$(CURDIR)/BENCH_store.json $(GO) test \
		-run '^TestBenchStore$$' -count=1 -v ./internal/store

# End-to-end crash drill: SIGKILL ccdacd mid-load against -store-dir,
# then assert quarantine-free recovery with warm cache hits.
store-smoke:
	sh scripts/store_smoke.sh

# Job-tier micro-batching benchmark: 32 compatible yield jobs over one
# shared 10-bit layout, run per-request vs coalesced, written to
# BENCH_jobs.json. Asserts the coalesced pass is >= 3x faster with
# byte-identical per-seed results (see docs/PERFORMANCE.md).
bench-jobs:
	BENCH_JOBS_OUT=$(CURDIR)/BENCH_jobs.json $(GO) test \
		-run '^TestBenchJobs$$' -count=1 -v ./internal/serve

# End-to-end job crash drill: submit a long checkpointed yield job,
# SIGKILL ccdacd mid-run, restart over the same -store-dir, and assert
# the job resumes from its last checkpoint and completes.
jobs-smoke:
	sh scripts/jobs_smoke.sh

# Benchmark regression gate: wrap every BENCH_*.json into the canonical
# benchfmt schema and compare against the latest same-suite entry in
# the append-only BENCH_HISTORY.jsonl trajectory. Fails (exit 1) when a
# gating metric moved the wrong way beyond BENCH_TOLERANCE (default 5%)
# or vanished from a harness (see docs/PERFORMANCE.md).
BENCH_TOLERANCE ?= 0.05
bench-diff:
	$(GO) run ./cmd/benchdiff -history BENCH_HISTORY.jsonl \
		-tolerance $(BENCH_TOLERANCE) BENCH_*.json

# Move the regression baseline: compare, then append the current
# reports to the trajectory. Run after an intentional perf change.
bench-update:
	$(GO) run ./cmd/benchdiff -history BENCH_HISTORY.jsonl \
		-tolerance $(BENCH_TOLERANCE) -update BENCH_*.json
