package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccdac/internal/jobs"
	"ccdac/internal/leakcheck"
	"ccdac/internal/obs/profcap"
	"ccdac/internal/store"
)

// TestWarmRestart is the durable-cache acceptance bar: a result
// computed by one daemon process is served as a cache hit by the next
// process over the same store directory — with metrics identical to
// the cold run's.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := `{"bits":5,"skip_nonlinearity":true}`

	srv1 := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, data := postGenerate(t, ts1.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", resp.StatusCode, data)
	}
	cold := decodeGenerate(t, data)
	if cold.CacheStatus != "cold" {
		t.Fatalf("first request cache_status = %q, want cold", cold.CacheStatus)
	}
	// Write-behind: make the persist visible, then "stop" the process.
	srv1.Close()
	ts1.Close()
	st, ok := srv1.StoreStats()
	if !ok || st.Writes == 0 || st.IndexEntries == 0 {
		t.Fatalf("store stats after flush = %+v, want a persisted, indexed result", st)
	}

	// A fresh process over the same directory restarts warm.
	srv2 := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	resp, data = postGenerate(t, ts2.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", resp.StatusCode, data)
	}
	warm := decodeGenerate(t, data)
	if warm.CacheStatus != "hit" {
		t.Fatalf("restarted request cache_status = %q, want hit (restored from store)", warm.CacheStatus)
	}
	if cm, wm := fmt.Sprintf("%+v", cold.Metrics), fmt.Sprintf("%+v", warm.Metrics); cm != wm {
		t.Errorf("restored metrics differ from cold metrics:\ncold: %s\nwarm: %s", cm, wm)
	}
	// The restored entry re-entered the memory cache: a third request
	// hits without touching the store again.
	reads := mustStoreStats(t, srv2).Reads
	resp, data = postGenerate(t, ts2.URL, body)
	if got := decodeGenerate(t, data).CacheStatus; got != "hit" {
		t.Fatalf("third request cache_status = %q, want hit", got)
	}
	if after := mustStoreStats(t, srv2).Reads; after != reads {
		t.Errorf("memory-cached hit still read the store (%d -> %d reads)", reads, after)
	}
}

func mustStoreStats(t *testing.T, s *Server) store.Stats {
	t.Helper()
	st, ok := s.StoreStats()
	if !ok {
		t.Fatal("server has no store")
	}
	return st
}

// TestArtifactEndpoint: GET /v1/artifacts/{hash} serves the stored
// bytes verbatim for a good hash, 400s malformed hashes, 404s unknown
// ones, and 502s (never serves) a corrupted blob.
func TestArtifactEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := `{"bits":5,"skip_nonlinearity":true}`
	resp, data := postGenerate(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: status %d: %s", resp.StatusCode, data)
	}
	srv.FlushStore()
	var req GenerateRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	hash, ok := srv.store.LookupIndex(cacheKey(req))
	if !ok {
		t.Fatal("persisted result not indexed")
	}

	get := func(h string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/artifacts/" + h)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	resp, data = get(hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good artifact: status %d: %s", resp.StatusCode, data)
	}
	if et := resp.Header.Get("ETag"); et != `"`+hash+`"` {
		t.Errorf("ETag = %q, want quoted content hash", et)
	}
	var cr cachedResult
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatalf("artifact is not the serialized result: %v", err)
	}

	if resp, _ = get("not-a-hash"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed hash: status %d, want 400", resp.StatusCode)
	}
	if resp, _ = get(strings.Repeat("ab", 32)); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown hash: status %d, want 404", resp.StatusCode)
	}

	// Corrupt the blob on disk: the endpoint must refuse to serve it.
	blobPath := filepath.Join(dir, "blobs", hash[:2], hash)
	if err := os.WriteFile(blobPath, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, data = get(hash)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("corrupt artifact: status %d (%s), want 502", resp.StatusCode, data)
	}
	if strings.Contains(string(data), "rotten") {
		t.Error("corrupt bytes leaked into the error response")
	}
	if n := mustStoreStats(t, srv).CorruptionsQuarantined; n != 1 {
		t.Errorf("CorruptionsQuarantined = %d, want 1", n)
	}

	// A server without a store 404s with a hint instead of crashing.
	srv2 := New(Options{Logger: quietLogger()})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/v1/artifacts/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("storeless server: status %d, want 404", resp2.StatusCode)
	}
}

// TestCorruptStoreRecomputes: a corrupted persisted result must not
// poison the warm restart — the lookup misses, the pipeline recomputes,
// and the client still gets a correct answer.
func TestCorruptStoreRecomputes(t *testing.T) {
	dir := t.TempDir()
	body := `{"bits":5,"skip_nonlinearity":true}`
	srv1 := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	postGenerate(t, ts1.URL, body)
	srv1.Close()
	ts1.Close()
	var req GenerateRequest
	json.Unmarshal([]byte(body), &req)
	hash, ok := srv1.store.LookupIndex(cacheKey(req))
	if !ok {
		t.Fatal("result not indexed")
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", hash[:2], hash), []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()
	resp, data := postGenerate(t, ts2.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request over corrupt store: status %d: %s", resp.StatusCode, data)
	}
	if got := decodeGenerate(t, data).CacheStatus; got != "cold" {
		t.Errorf("cache_status = %q, want cold (corrupt entry quarantined, recomputed)", got)
	}
	if n := mustStoreStats(t, srv2).CorruptionsQuarantined; n != 1 {
		t.Errorf("CorruptionsQuarantined = %d, want 1", n)
	}
}

// TestStoreDegradedWarning: an unusable store directory must not stop
// the daemon — it starts memory-only, says so in response warnings
// (every /v1/batch item included), and flags it in /metrics.
func TestStoreDegradedWarning(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(Options{Logger: quietLogger(), StoreDir: filepath.Join(file, "store")})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, data := postGenerate(t, ts.URL, `{"bits":5,"skip_nonlinearity":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded daemon: status %d: %s", resp.StatusCode, data)
	}
	degraded := func(warnings []string) bool {
		for _, w := range warnings {
			if strings.Contains(w, "store: degraded to memory-only") {
				return true
			}
		}
		return false
	}
	if gr := decodeGenerate(t, data); !degraded(gr.Warnings) {
		t.Errorf("warnings = %v, want a store-degradation warning", gr.Warnings)
	}

	bresp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"bits":5,"skip_nonlinearity":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	bdata, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	var br BatchResponse
	if err := json.Unmarshal(bdata, &br); err != nil {
		t.Fatalf("batch status %d: %v: %s", bresp.StatusCode, err, bdata)
	}
	if len(br.Items) != 1 || br.Items[0].Response == nil {
		t.Fatalf("batch items = %+v, want one response", br.Items)
	}
	if w := br.Items[0].Response.Warnings; !degraded(w) {
		t.Errorf("batch item warnings = %v, want a store-degradation warning", w)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), "ccdac_store_degraded 1") {
		t.Error("/metrics does not report ccdac_store_degraded 1")
	}
}

// TestPersistProvenance: every persisted result appends a verifiable
// provenance record binding the request to the artifact.
func TestPersistProvenance(t *testing.T) {
	dir := t.TempDir()
	srv := New(Options{Logger: quietLogger(), StoreDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	postGenerate(t, ts.URL, `{"bits":5,"skip_nonlinearity":true}`)
	postGenerate(t, ts.URL, `{"bits":6,"skip_nonlinearity":true}`)
	srv.FlushStore()

	n, err := srv.store.VerifyProvenance()
	if err != nil || n != 2 {
		t.Fatalf("VerifyProvenance = %d, %v, want 2 clean records", n, err)
	}
	recs, err := srv.store.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ConfigJSON == "" || r.GoVersion == "" || r.Artifact == "" || r.Key == "" {
			t.Errorf("provenance record %d missing fields: %+v", r.Seq, r)
		}
		if h, ok := srv.store.LookupIndex(r.Key); !ok || h != r.Artifact {
			t.Errorf("record %d artifact %s not resolvable via its key", r.Seq, r.Artifact)
		}
	}

	// /metrics carries the store counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"ccdac_store_writes_total", "ccdac_store_index_entries 2",
		"ccdac_store_provenance_records 2", "ccdac_store_degraded 0",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPersisterShutdownNoLeak: closing the daemon stops the
// write-behind persister goroutine even with work freshly queued, and
// a straggler enqueue after close drops (and is counted) rather than
// blocking or resurrecting the loop.
func TestPersisterShutdownNoLeak(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{Logger: quietLogger(), StoreDir: t.TempDir(),
		ProfileWindow: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())

	resp, data := postGenerate(t, ts.URL, `{"bits":5,"skip_nonlinearity":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, data)
	}
	// A manual capture exercises the profile-blob persist path too.
	presp, err := http.Post(ts.URL+"/debug/profile", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()

	ts.Close()
	srv.Close()

	dropped := srv.persist.dropped.Load()
	srv.persist.enqueue(persistJob{key: "profile/late/cpu", payload: []byte("late")})
	if got := srv.persist.dropped.Load(); got != dropped+1 {
		t.Errorf("post-close enqueue dropped count %d, want %d", got, dropped+1)
	}
	// Close is idempotent.
	srv.Close()
}

// TestProvenanceRecordFields pins the provenance record each kind of
// durable artifact appends — a cached result, an error-retained trace,
// a profile, terminal job records and a checkpoint — to the Key,
// ConfigJSON and Seed the chain has always carried for it, so a stored
// chain reads the same whichever write path produced it.
func TestProvenanceRecordFields(t *testing.T) {
	srv := New(Options{Logger: quietLogger(), StoreDir: t.TempDir(), ProfileWindow: -1, JobMaxBatch: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	result := `{"bits":4,"style":"annealed","anneal_seed":7,"anneal_moves":200,"skip_nonlinearity":true}`
	if resp, data := postGenerate(t, ts.URL, result); resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, data)
	}
	// A refused request still runs, fails and is retained for cause.
	if resp, data := postGenerate(t, ts.URL, `{"bits":99,"anneal_seed":3}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range generate status %d, want 400: %s", resp.StatusCode, data)
	}
	srv.persistCapture(profcap.Capture{Reason: "slow", TraceID: "t1", Duration: 2 * time.Second, CPU: []byte("cpu")})
	gen := submitJobOK(t, ts.URL, `{"kind":"generate","bits":5,"skip_nonlinearity":true}`)
	yld := submitJobOK(t, ts.URL, `{"kind":"yield","bits":5,"samples":40,"seed":9,"spec_inl":0.5,"checkpoint_every":20}`)
	for _, id := range []string{gen.ID, yld.ID} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		j, err := srv.Jobs().Wait(ctx, id)
		cancel()
		if err != nil || j.State != jobs.StateDone {
			t.Fatalf("job %s: state %s (%s), err %v", id, j.State, j.Error, err)
		}
	}
	srv.FlushStore()

	var errored string
	for _, tr := range srv.recorder.List() {
		if tr.Err != "" {
			errored = tr.ID
		}
	}
	if errored == "" {
		t.Fatal("the refused request left no error trace")
	}
	if n, err := srv.store.VerifyProvenance(); err != nil {
		t.Fatalf("VerifyProvenance = %d, %v", n, err)
	}
	recs, err := srv.store.Provenance()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]store.ProvenanceRecord{}
	for _, r := range recs {
		if _, dup := byKey[r.Key]; dup {
			t.Errorf("two provenance records for key %s", r.Key)
		}
		byKey[r.Key] = r
		if r.GoVersion == "" || r.CodeHash == "" || r.Artifact == "" {
			t.Errorf("record %d (%s) lacks its stamp: %+v", r.Seq, r.Key, r)
		}
		if h, ok := srv.store.LookupIndex(r.Key); !ok || h != r.Artifact {
			t.Errorf("record %d artifact %s not resolvable via its key %s", r.Seq, r.Artifact, r.Key)
		}
	}
	genSpec := `{"kind":"generate","priority":"batch","bits":5,"style":"spiral","tech_node":"finfet12","fft":"auto","skip_nonlinearity":true}`
	yieldSpec := `{"kind":"yield","priority":"batch","bits":5,"style":"spiral","tech_node":"finfet12","fft":"auto",` +
		`"samples":40,"seed":9,"spec_inl":0.5,"spec_dnl":0.5,"theta_deg":45,"checkpoint_every":20}`
	want := []struct {
		what, key, config string
		seed              int64
	}{
		{"cached result", "683790ad71b84ae730d52c4ed5d219fd", result, 7},
		{"error-retained trace", "trace/" + errored, `{"bits":99,"anneal_seed":3}`, 3},
		{"profile", "profile/t1/cpu", `{"reason":"slow","trace_id":"t1","window_seconds":2}`, 0},
		{"terminal generate job", "job/" + gen.ID, genSpec, 0},
		{"terminal yield job", "job/" + yld.ID, yieldSpec, 0},
		{"checkpoint", "jobck/" + yld.ID, yieldSpec, 9},
	}
	if len(recs) != len(want) {
		t.Errorf("%d provenance records, want %d: %+v", len(recs), len(want), recs)
	}
	for _, w := range want {
		r, ok := byKey[w.key]
		if !ok {
			t.Errorf("%s: no provenance record under %s", w.what, w.key)
			continue
		}
		if r.ConfigJSON != w.config || r.Seed != w.seed {
			t.Errorf("%s: ConfigJSON %s seed %d, want %s seed %d", w.what, r.ConfigJSON, r.Seed, w.config, w.seed)
		}
	}
}
