package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdac/internal/core"
	"ccdac/internal/linalg"
	"ccdac/internal/memo"
	"ccdac/internal/sweep"
)

// benchCacheReport is the schema of BENCH_cache.json (`make
// bench-cache`): the three caching claims of docs/PERFORMANCE.md plus
// the solver allocation numbers, each measured, not asserted from
// folklore. Timings are medians over repeated runs, so no single
// descheduled request or sweep sets a number the regression gate reads.
type benchCacheReport struct {
	// Serve result cache: the median of serveRuns cold (cache:"bypass")
	// 10-bit generates vs the median of serveRuns of the same request
	// answered from the cache.
	ServeColdSeconds float64 `json:"serve_cold_seconds"`
	ServeWarmSeconds float64 `json:"serve_warm_seconds"`
	ServeSpeedup     float64 `json:"serve_speedup"`
	// Stage memoization under a 5-factor sensitivity sweep: identical
	// binary, knob-disabled vs knob-enabled, median of sweepRuns each;
	// SweepMemoHits is the stage-cache hits of one memoized sweep.
	SweepFactors     int     `json:"sweep_factors"`
	SweepColdSeconds float64 `json:"sweep_cold_seconds"`
	SweepMemoSeconds float64 `json:"sweep_memo_seconds"`
	SweepSpeedup     float64 `json:"sweep_speedup"`
	SweepMemoHits    int64   `json:"sweep_memo_hits"`
	// Singleflight: N concurrent identical requests vs generations paid.
	BatchClients     int     `json:"batch_clients"`
	BatchGenerations int64   `json:"batch_generations"`
	BatchDedupFactor float64 `json:"batch_dedup_factor"`
	// Pooled-scratch CG solver (satellite: alloc reduction).
	CGNsPerOp     int64 `json:"cg_ns_per_op"`
	CGAllocsPerOp int64 `json:"cg_allocs_per_op"`
	CGBytesPerOp  int64 `json:"cg_bytes_per_op"`
}

// serveRuns and sweepRuns are the repetitions behind each median.
const serveRuns, sweepRuns = 9, 5

// median returns the middle of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// timed runs f n times back to back and returns the median wall time.
func timed(n int, f func()) float64 {
	secs := make([]float64, n)
	for i := range secs {
		start := time.Now()
		f()
		secs[i] = time.Since(start).Seconds()
	}
	return median(secs)
}

// TestBenchCache is the harness behind `make bench-cache`, gated on
// BENCH_CACHE_OUT. CI runs it as a smoke test asserting the speedups
// exceed 1 and the dedup factor equals the client count; in the
// committed BENCH_cache.json the acceptance thresholds (serve >= 10x,
// sweep >= 2x) hold comfortably.
func TestBenchCache(t *testing.T) {
	out := os.Getenv("BENCH_CACHE_OUT")
	if out == "" {
		t.Skip("set BENCH_CACHE_OUT=<file> to write the cache benchmark report")
	}
	var rep benchCacheReport

	// --- Serve result cache: cold vs warm 10-bit generate. ---
	srv := New(Options{MaxInFlight: 8, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	memo.PurgeAll()
	const body = `{"bits":10,"max_parallel":2}`
	post := func(body string) GenerateResponse {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var gr GenerateResponse
		if err := json.Unmarshal(data, &gr); err != nil {
			t.Fatal(err)
		}
		return gr
	}
	if cold := post(body); cold.CacheStatus != "cold" {
		t.Fatalf("first request cache_status = %q, want cold", cold.CacheStatus)
	}
	// Bypass recomputes for real: no result cache, no stage memo.
	rep.ServeColdSeconds = timed(serveRuns, func() {
		if gr := post(`{"bits":10,"max_parallel":2,"cache":"bypass"}`); gr.CacheStatus != "bypass" {
			t.Fatalf("bypass request cache_status = %q, want bypass", gr.CacheStatus)
		}
	})
	rep.ServeWarmSeconds = timed(serveRuns, func() {
		if gr := post(body); gr.CacheStatus != "hit" {
			t.Fatalf("repeat request cache_status = %q, want hit", gr.CacheStatus)
		}
	})
	rep.ServeSpeedup = rep.ServeColdSeconds / rep.ServeWarmSeconds
	if rep.ServeSpeedup <= 1 {
		t.Errorf("serve warm-hit speedup = %.2fx, want > 1", rep.ServeSpeedup)
	}

	// --- Stage memoization under a sensitivity sweep. ---
	// The gradient knob rescales mismatch statistics only: placement,
	// routing, extraction and the geometry-keyed covariance distances
	// are identical across factors, so the memoized sweep recomputes
	// only the final analysis per point. Same binary, knob off vs on.
	factors := []float64{0.5, 0.75, 1, 1.5, 2}
	rep.SweepFactors = len(factors)
	cfg := core.Config{Bits: 8, MaxParallel: 2}
	var coldPts []sweep.Point
	rep.SweepColdSeconds = timed(sweepRuns, func() {
		pts, err := sweep.SensitivityContext(context.Background(), cfg, sweep.KnobGradient, factors, true)
		if err != nil {
			t.Fatal(err)
		}
		coldPts = pts
	})

	memo.PurgeAll()
	memoCfg := cfg
	memoCfg.Memo = true
	if _, err := sweep.SensitivityContext(context.Background(), memoCfg, sweep.KnobGradient, factors[:1], true); err != nil {
		t.Fatal(err) // prime: the first factor pays the cold cost once
	}
	hitsBefore := memoHits()
	var memoRuns [][]sweep.Point
	rep.SweepMemoSeconds = timed(sweepRuns, func() {
		pts, err := sweep.SensitivityContext(context.Background(), memoCfg, sweep.KnobGradient, factors, true)
		if err != nil {
			t.Fatal(err)
		}
		memoRuns = append(memoRuns, pts)
	})
	rep.SweepMemoHits = (memoHits() - hitsBefore) / sweepRuns
	rep.SweepSpeedup = rep.SweepColdSeconds / rep.SweepMemoSeconds
	if rep.SweepSpeedup <= 1 {
		t.Errorf("memoized sweep speedup = %.2fx, want > 1", rep.SweepSpeedup)
	}
	if rep.SweepMemoHits == 0 {
		t.Error("memoized sweep recorded no stage-cache hits")
	}
	// Correctness: every memoized sweep must reproduce the cold sweep.
	for _, memoPts := range memoRuns {
		for i := range coldPts {
			if coldPts[i] != memoPts[i] {
				t.Errorf("sweep point %d differs under memoization: %+v vs %+v", i, coldPts[i], memoPts[i])
			}
		}
	}

	// --- Singleflight dedup: N concurrent identical requests. ---
	const clients = 8
	rep.BatchClients = clients
	dedupBody := `{"bits":9,"max_parallel":2,"theta_steps":64,"cache":"default"}`
	runsBefore := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil)
	startCh := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-startCh
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(dedupBody))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	close(startCh)
	wg.Wait()
	rep.BatchGenerations = srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil) - runsBefore
	if rep.BatchGenerations < 1 {
		t.Fatalf("dedup run recorded %d generations", rep.BatchGenerations)
	}
	rep.BatchDedupFactor = float64(clients) / float64(rep.BatchGenerations)
	if rep.BatchGenerations != 1 {
		t.Errorf("%d concurrent identical requests paid %d generations, want 1", clients, rep.BatchGenerations)
	}

	// --- CG solver allocations (pooled scratch vectors). ---
	br := testing.Benchmark(func(b *testing.B) {
		const n = 256
		s := linalg.NewSparse(n)
		for i := 0; i < n; i++ {
			s.Add(i, i, 1e-3)
		}
		for i := 0; i+1 < n; i++ {
			s.AddSym(i, i+1, -1)
			s.Add(i, i, 1)
			s.Add(i+1, i+1, 1)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%7) + 1
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.SolveCGIter(rhs, 1e-12, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.CGNsPerOp = br.NsPerOp()
	rep.CGAllocsPerOp = br.AllocsPerOp()
	rep.CGBytesPerOp = br.AllocedBytesPerOp()
	// One allocation per solve: the returned solution vector. The five
	// scratch vectors (preconditioner, residual, z, p, Ap) are pooled.
	if rep.CGAllocsPerOp > 2 {
		t.Errorf("CG solve allocates %d objects/op, want <= 2 (pooled scratch)", rep.CGAllocsPerOp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("serve %.0fx, sweep %.1fx (%d hits), dedup %d->%d, CG %d allocs/op -> %s",
		rep.ServeSpeedup, rep.SweepSpeedup, rep.SweepMemoHits,
		rep.BatchClients, rep.BatchGenerations, rep.CGAllocsPerOp, out)
}

// memoHits sums hit counts across every registered stage cache.
func memoHits() int64 {
	var n int64
	for _, st := range memo.Snapshot() {
		n += st.Hits
	}
	return n
}
