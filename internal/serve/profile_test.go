package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDebugProfileCapturesAndPersists: one POST /debug/profile session
// against a store-backed server yields CPU/goroutine/heap artifacts,
// each retrievable via /v1/artifacts/{hash} once the write-behind
// queue drains.
func TestDebugProfileCapturesAndPersists(t *testing.T) {
	srv := New(Options{
		Logger:        quietLogger(),
		StoreDir:      t.TempDir(),
		ProfileWindow: 50 * time.Millisecond,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/debug/profile", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile capture status %d: %s", resp.StatusCode, data)
	}
	var pr profileResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Status != "captured" || pr.Reason != "manual" {
		t.Fatalf("capture response: %+v", pr)
	}
	if !pr.Persisted || pr.Warning != "" {
		t.Fatalf("store-backed capture not persisted: %+v", pr)
	}
	for _, kind := range []string{"goroutine", "heap"} {
		if pr.Artifacts[kind] == "" {
			t.Errorf("capture missing %s artifact: %+v", kind, pr)
		}
	}
	// The CPU profile of an idle 50ms window can legitimately be empty
	// of samples but the proto itself must exist unless dropped.
	if pr.Artifacts["cpu"] == "" && len(pr.Dropped) == 0 {
		t.Errorf("capture has neither cpu artifact nor a drop record: %+v", pr)
	}

	srv.persist.flush()
	for kind, hash := range pr.Artifacts {
		r, err := http.Get(ts.URL + "/v1/artifacts/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s artifact %s: status %d", kind, hash, r.StatusCode)
		}
		if int64(len(blob)) != pr.Bytes[kind] {
			t.Errorf("%s artifact size %d, reported %d", kind, len(blob), pr.Bytes[kind])
		}
	}
}

// TestDebugProfileConflictAndDisabled: a second capture while one is in
// flight is 409, never queued; a server built with ProfileWindow < 0
// has no capturer and 404s.
func TestDebugProfileConflictAndDisabled(t *testing.T) {
	srv := New(Options{Logger: quietLogger(), ProfileWindow: 300 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.profcap.CaptureSync(context.Background(), "test", "", 300*time.Millisecond)
	}()
	for i := 0; !srv.profcap.Busy(); i++ {
		if i > 100 {
			t.Fatal("capturer never became busy")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/debug/profile?seconds=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent capture status %d, want 409", resp.StatusCode)
	}
	wg.Wait()

	off := New(Options{Logger: quietLogger(), ProfileWindow: -1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err = http.Post(tsOff.URL+"/debug/profile", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled capture status %d, want 404", resp.StatusCode)
	}
}

// TestDebugProfileBadSeconds rejects malformed windows up front.
func TestDebugProfileBadSeconds(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{"seconds=0", "seconds=-3", "seconds=soon"} {
		resp, err := http.Post(ts.URL+"/debug/profile?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestClampSecondsRewritesPprofWindow: the pprof passthrough clamps
// `seconds` below the drain deadline so a profile session can never
// outlive a graceful shutdown. Asserted against a recording handler,
// not a real profile window.
func TestClampSecondsRewritesPprofWindow(t *testing.T) {
	srv := New(Options{Logger: quietLogger(), DrainTimeout: 3 * time.Second})
	var got string
	h := srv.clampSeconds(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.URL.Query().Get("seconds")
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/profile?seconds=120", nil))
	if got != "2" {
		t.Errorf("seconds clamped to %q, want \"2\" (drain 3s - 1)", got)
	}
	if rec.Header().Get("X-Seconds-Clamped") != "2" {
		t.Errorf("clamp header = %q, want 2", rec.Header().Get("X-Seconds-Clamped"))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/profile?seconds=1", nil))
	if got != "1" {
		t.Errorf("in-bounds seconds rewritten to %q", got)
	}
	if rec.Header().Get("X-Seconds-Clamped") != "" {
		t.Error("in-bounds request carries a clamp header")
	}
}

// TestPprofExemptFromRequestTimeout is the timeout-exemption satellite:
// a 1s profile window must survive a server whose per-request deadline
// is 50ms, because only limited (generate-class) routes run under the
// timeout.
func TestPprofExemptFromRequestTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("1s profile window in -short mode")
	}
	srv := New(Options{Logger: quietLogger(), RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile status %d: %s", resp.StatusCode, data)
	}
	if d := time.Since(start); d < time.Second {
		t.Fatalf("profile window returned after %v, want >= 1s (deadline must not apply)", d)
	}
	if len(data) == 0 {
		t.Fatal("empty profile body")
	}
}

// TestAccessLogSampling: with AccessLogSample N only one in N healthy
// INFO lines is emitted (the rest counted), while WARN-level lines —
// here, slow requests — always log.
func TestAccessLogSampling(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(syncWriter{&mu, &buf}, nil))
	srv := New(Options{Logger: logger, AccessLogSample: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const requests = 20
	for i := 0; i < requests; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mu.Lock()
	lines := strings.Count(buf.String(), `"msg":"request"`)
	mu.Unlock()
	if lines != requests/10 {
		t.Errorf("sampled access log emitted %d lines for %d requests, want %d", lines, requests, requests/10)
	}
	if got := srv.logsSampled.Load(); got != requests-requests/10 {
		t.Errorf("logsSampled = %d, want %d", got, requests-requests/10)
	}

	// Slow requests escalate to WARN and bypass sampling entirely.
	var warnBuf bytes.Buffer
	warnLogger := slog.New(slog.NewJSONHandler(syncWriter{&mu, &warnBuf}, nil))
	slow := New(Options{Logger: warnLogger, AccessLogSample: 10, SlowRequest: time.Nanosecond})
	tsSlow := httptest.NewServer(slow.Handler())
	defer tsSlow.Close()
	for i := 0; i < 5; i++ {
		resp, err := http.Get(tsSlow.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mu.Lock()
	warns := strings.Count(warnBuf.String(), `"msg":"slow request"`)
	mu.Unlock()
	if warns != 5 {
		t.Errorf("slow-request WARNs = %d, want 5 (sampling must not eat WARN+)", warns)
	}
}

// TestMetricsNumericAndProfcapSeries: after one generate the scrape
// carries the numeric series the pipeline sets from its input, and no
// other ccdac_numeric_* family; it also surfaces the profcap counters
// and the sampled access-log counter.
func TestMetricsNumericAndProfcapSeries(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postGenerate(t, ts.URL, `{"bits":6,"max_parallel":2}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := parsePromText(t, string(text))

	for _, key := range []string{
		`ccdac_numeric_fft_structured_total{path="analyze"}`,
		"ccdac_profcap_triggered_total", "ccdac_profcap_captured_total",
		"ccdac_profcap_busy", "ccdac_serve_access_log_sampled_total",
	} {
		if _, ok := series[key]; !ok {
			t.Errorf("scrape missing %s", key)
		}
	}
	inputDependent := []string{
		"ccdac_numeric_cov_cond_estimate",
		"ccdac_numeric_fft_structured_total", "ccdac_numeric_fft_fallback_total",
		"ccdac_numeric_fft_samples_total",
	}
	for key := range series {
		name, _, _ := strings.Cut(key, "{")
		// Histograms expose _bucket, _sum and _count series.
		known := slices.ContainsFunc(inputDependent, func(family string) bool {
			return name == family || strings.HasPrefix(name, family+"_")
		})
		if strings.HasPrefix(name, "ccdac_numeric_") && !known {
			t.Errorf("scrape carries %s, which no pipeline input sets", key)
		}
	}
}

// TestSlowTraceTriggersProfileCapture is the end-to-end acceptance
// path: a forced slow request is tail-sampled for cause, the retention
// fires a triggered profile capture, and the trace's /debug/traces/{id}
// view links persisted profile artifacts retrievable through
// /v1/artifacts/{hash}.
func TestSlowTraceTriggersProfileCapture(t *testing.T) {
	srv := New(Options{
		Logger:          quietLogger(),
		StoreDir:        t.TempDir(),
		ProfileWindow:   50 * time.Millisecond,
		ProfileCooldown: time.Millisecond,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Arm the tail sampler's slow classifier: it needs a window of
	// healthy latencies before it can call anything an outlier.
	for i := 0; i < 18; i++ {
		resp, data := postGenerate(t, ts.URL, `{"bits":4,"skip_nonlinearity":true,"cache":"bypass"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	// Under CPU contention a warm-up can itself be retained for cause,
	// and its capture would keep the capturer busy — dropping the
	// outlier's trigger. Let any such capture finish first.
	deadline := time.Now().Add(10 * time.Second)
	for srv.profcap.Busy() {
		if time.Now().After(deadline) {
			t.Fatal("a warm-up's profile capture never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One request an order of magnitude slower than the window (~0.6 s
	// on a 2-core host; the profile windows are 50ms): lands above the
	// slow quantile and is retained for cause.
	const outlier = "slow-outlier"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate",
		strings.NewReader(`{"bits":12,"style":"block-chessboard","theta_steps":360,"fft":"off","cache":"bypass"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", outlier)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow request: status %d: %s", resp.StatusCode, data)
	}

	// Find the outlier's for-cause retention by its request ID (the
	// trace's tag): a warm-up may hold a slow row of its own.
	var slowID string
	var idx traceIndexResponse
	iresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	idata, _ := io.ReadAll(iresp.Body)
	iresp.Body.Close()
	if err := json.Unmarshal(idata, &idx); err != nil {
		t.Fatal(err)
	}
	for _, tr := range idx.Traces {
		if tr.Tag == outlier && tr.Reason == "slow" {
			slowID = tr.ID
			break
		}
	}
	if slowID == "" {
		t.Fatalf("the outlier request was not retained as slow: %s", idata)
	}

	// The capture runs asynchronously (50ms window + write-behind
	// persist, one artifact at a time); poll the trace view until every
	// artifact asserted below has linked up, not just the first.
	var tv traceResponse
	deadline = time.Now().Add(10 * time.Second)
	for {
		tresp, err := http.Get(ts.URL + "/debug/traces/" + slowID)
		if err != nil {
			t.Fatal(err)
		}
		tdata, _ := io.ReadAll(tresp.Body)
		tresp.Body.Close()
		if tresp.StatusCode != http.StatusOK {
			t.Fatalf("trace view status %d: %s", tresp.StatusCode, tdata)
		}
		if err := json.Unmarshal(tdata, &tv); err != nil {
			t.Fatal(err)
		}
		if _, ok := tv.ProfileArtifacts["goroutine"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never linked its goroutine profile: %s", slowID, tdata)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every linked artifact must be retrievable by content hash.
	for kind, hash := range tv.ProfileArtifacts {
		aresp, err := http.Get(ts.URL + "/v1/artifacts/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(aresp.Body)
		aresp.Body.Close()
		if aresp.StatusCode != http.StatusOK {
			t.Errorf("%s artifact %s: status %d", kind, hash, aresp.StatusCode)
		}
		if len(blob) == 0 {
			t.Errorf("%s artifact %s: empty blob", kind, hash)
		}
	}
	if _, ok := tv.ProfileArtifacts["goroutine"]; !ok {
		t.Errorf("trace view missing goroutine profile link: %v", tv.ProfileArtifacts)
	}

	// The capture shows up in the capturer's accounting too.
	if st := srv.profcap.Stats(); st.Triggered < 1 || st.Captured < 1 {
		t.Errorf("profcap stats after slow trace = %+v, want >= 1 triggered and captured", st)
	}
}
