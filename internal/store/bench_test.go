package store

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchStoreReport is the schema of BENCH_store.json (`make
// bench-store`): measured throughput of the durable tier plus the
// warm-restart hit rate — the numbers behind the docs/ROBUSTNESS.md
// claims about what crash-safety costs.
type benchStoreReport struct {
	// Atomic write discipline: fsync-backed Put throughput for
	// result-sized (~4 KiB) artifacts.
	ArtifactBytes    int     `json:"artifact_bytes"`
	Writes           int     `json:"writes"`
	WriteSeconds     float64 `json:"write_seconds"`
	WritesPerSecond  float64 `json:"writes_per_second"`
	WriteMBPerSecond float64 `json:"write_mb_per_second"`
	// Verified reads: every Get re-hashes the blob before serving it.
	Reads           int     `json:"reads"`
	ReadSeconds     float64 `json:"read_seconds"`
	ReadsPerSecond  float64 `json:"reads_per_second"`
	ReadMBPerSecond float64 `json:"read_mb_per_second"`
	// Warm restart: a fresh store over the same directory must resolve
	// and verify every previously indexed result.
	WarmRestartEntries int     `json:"warm_restart_entries"`
	WarmRestartHits    int     `json:"warm_restart_hits"`
	WarmRestartHitRate float64 `json:"warm_restart_hit_rate"`
	OpenSeconds        float64 `json:"open_seconds"`
}

// TestBenchStore is the harness behind `make bench-store`, gated on
// BENCH_STORE_OUT. CI runs it as a smoke asserting a perfect
// warm-restart hit rate; the committed BENCH_store.json comes from an
// uncontended local run.
func TestBenchStore(t *testing.T) {
	out := os.Getenv("BENCH_STORE_OUT")
	if out == "" {
		t.Skip("set BENCH_STORE_OUT=<file> to write the store benchmark report")
	}
	var rep benchStoreReport
	const n = 200
	rep.Writes, rep.Reads, rep.WarmRestartEntries = n, n, n
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// --- Write throughput (temp + fsync + rename per artifact). ---
	blobs := make([][]byte, n)
	for i := range blobs {
		blobs[i] = []byte(strings.Repeat(fmt.Sprintf("result %03d ", i), 372)) // ~4 KiB
	}
	rep.ArtifactBytes = len(blobs[0])
	hashes := make([]string, n)
	start := time.Now()
	for i, b := range blobs {
		h, err := s.put(b)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
		if err := s.setIndex(fmt.Sprintf("bench-key-%d", i), h); err != nil {
			t.Fatal(err)
		}
	}
	rep.WriteSeconds = time.Since(start).Seconds()
	rep.WritesPerSecond = float64(n) / rep.WriteSeconds
	rep.WriteMBPerSecond = float64(n*rep.ArtifactBytes) / rep.WriteSeconds / (1 << 20)
	if deg, err := s.Degraded(); deg {
		t.Fatalf("store degraded during bench: %v", err)
	}

	// --- Verified read throughput. ---
	start = time.Now()
	for _, h := range hashes {
		if _, err := s.Get(h); err != nil {
			t.Fatal(err)
		}
	}
	rep.ReadSeconds = time.Since(start).Seconds()
	rep.ReadsPerSecond = float64(n) / rep.ReadSeconds
	rep.ReadMBPerSecond = float64(n*rep.ArtifactBytes) / rep.ReadSeconds / (1 << 20)

	// --- Warm restart: reopen and resolve every indexed result. ---
	start = time.Now()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep.OpenSeconds = time.Since(start).Seconds()
	for i := 0; i < n; i++ {
		h, ok := s2.LookupIndex(fmt.Sprintf("bench-key-%d", i))
		if !ok {
			continue
		}
		if _, err := s2.Get(h); err == nil {
			rep.WarmRestartHits++
		}
	}
	rep.WarmRestartHitRate = float64(rep.WarmRestartHits) / float64(n)
	if rep.WarmRestartHitRate != 1 {
		t.Errorf("warm-restart hit rate = %.3f, want 1.0 (%d/%d resolved)",
			rep.WarmRestartHitRate, rep.WarmRestartHits, n)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("writes %.0f/s (%.1f MB/s), verified reads %.0f/s (%.1f MB/s), warm restart %d/%d -> %s",
		rep.WritesPerSecond, rep.WriteMBPerSecond, rep.ReadsPerSecond, rep.ReadMBPerSecond,
		rep.WarmRestartHits, n, out)
}
