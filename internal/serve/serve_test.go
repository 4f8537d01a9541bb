package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccdac/internal/obs"
)

// quietLogger discards the structured request log in tests that don't
// assert on it.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// slowSeed numbers the annealing seeds of slowBody.
var slowSeed atomic.Int64

// slowBody returns the slow workload of the cancellation tests: a
// 12-bit annealed generate whose placement no run in this process has
// made before (-count included), so no stage memo holds any of it.
// Annealing the fresh placement takes ~0.2 s on a 2-core host.
func slowBody() string {
	return fmt.Sprintf(`{"bits":12,"style":"annealed","anneal_moves":2000,"anneal_seed":%d,"theta_steps":360}`,
		slowSeed.Add(1))
}

func postGenerate(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestConcurrentGenerateMergesAllMetrics is the acceptance bar: ≥50
// concurrent generate requests with zero dropped metric merges — the
// global registry's counter totals must equal the sum of the
// per-request snapshots each response reports.
func TestConcurrentGenerateMergesAllMetrics(t *testing.T) {
	const requests = 50
	// CacheMaxBytes < 0: this test reconciles per-request counter
	// snapshots against global totals, so every request must really run
	// — no result cache, no singleflight collapsing.
	srv := New(Options{MaxInFlight: requests, CacheMaxBytes: -1, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu  sync.Mutex
		sum = map[string]int64{}
	)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"bits":%d,"max_parallel":2,"skip_nonlinearity":true}`, 4+i%2)
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var gr GenerateResponse
			if err := json.Unmarshal(data, &gr); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			mu.Lock()
			for k, v := range gr.Counters {
				sum[k] += v
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(sum) == 0 {
		t.Fatal("no per-request counters reported")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := parsePromText(t, string(text))

	for k, want := range sum {
		if got := int64(series[k]); got != want {
			t.Errorf("global %s = %d, want %d (sum of per-request snapshots)", k, got, want)
		}
	}
	if sum["ccdac_core_runs_total"] < requests {
		t.Errorf("ccdac_core_runs_total sum = %d, want >= %d", sum["ccdac_core_runs_total"], requests)
	}
	key := `ccdac_serve_requests_total{code="200",route="generate"}`
	if got := series[key]; got != requests {
		t.Errorf("%s = %g, want %d", key, got, requests)
	}
	histKey := `ccdac_serve_request_seconds_count{route="generate"}`
	if got := series[histKey]; got != requests {
		t.Errorf("%s = %g, want %d", histKey, got, requests)
	}
}

// TestRequestTimeoutCancelsMidRequest: the per-request deadline fires
// while the pipeline runs; the request must return promptly with 504,
// the root span must be marked errored, and the partial metrics of the
// aborted run must still merge into the global registry.
func TestRequestTimeoutCancelsMidRequest(t *testing.T) {
	srv := New(Options{RequestTimeout: time.Millisecond, Logger: quietLogger()})
	traces := make(chan *obs.Trace, 1)
	srv.onTrace = func(tr *obs.Trace) { traces <- tr }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A cold annealed 12-bit run takes ~0.25 s on a 2-core host, so
	// the 1ms deadline always fires mid-pipeline.
	start := time.Now()
	resp, data := postGenerate(t, ts.URL, slowBody())
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("canceled request took %v, want prompt return", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, data)
	}
	var er struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID == "" {
		t.Error("error response missing request_id")
	}

	tr := <-traces
	rootErrored := false
	for _, s := range tr.Spans() {
		if s.Name == "serve.generate" && s.Err != "" {
			rootErrored = true
		}
	}
	if !rootErrored {
		t.Error("root serve.generate span not marked errored on cancellation")
	}
	// The aborted run's partial effort is visible globally: the run
	// started (counter merged) even though it never finished.
	snap := srv.Registry().Snapshot()
	if got := snap.Counter("ccdac_core_runs_total", nil); got != 1 {
		t.Errorf("global ccdac_core_runs_total = %d, want 1 (partial metrics dropped)", got)
	}
	if got := snap.Counter("ccdac_serve_requests_total", obs.Labels{"route": "generate", "code": "504"}); got != 1 {
		t.Errorf("serve 504 counter = %d, want 1", got)
	}
}

// TestClientCancelMidRequest covers the client-disconnect flavor: the
// client gives up mid-pipeline, and the server still closes the trace
// (root span errored) and merges the partial metrics.
func TestClientCancelMidRequest(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	traces := make(chan *obs.Trace, 1)
	srv.onTrace = func(tr *obs.Trace) { traces <- tr }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A cold annealed 12-bit run takes ~0.25 s on a 2-core host, far
	// longer than the cancel delay, so the cancellation always lands
	// mid-pipeline.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate",
		strings.NewReader(slowBody()))
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(25*time.Millisecond, cancel)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite cancellation")
	}

	select {
	case tr := <-traces:
		rootErrored := false
		for _, s := range tr.Spans() {
			if s.Name == "serve.generate" && s.Err != "" {
				rootErrored = true
			}
		}
		if !rootErrored {
			t.Error("root span not marked errored after client cancel")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not finish the canceled request promptly")
	}
	if got := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil); got != 1 {
		t.Errorf("global ccdac_core_runs_total = %d, want 1 (partial metrics dropped)", got)
	}
}

// TestShedsAtCapacity: the admission semaphore never queues — a
// request beyond MaxInFlight is shed immediately with 429.
func TestShedsAtCapacity(t *testing.T) {
	srv := New(Options{MaxInFlight: 1, Logger: quietLogger()})
	entered := make(chan struct{})
	release := make(chan struct{})
	h := srv.wrap("test", true, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // first request holds the only slot

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	close(release)
	<-done

	snap := srv.Registry().Snapshot()
	if got := snap.Counter("ccdac_serve_shed_total", obs.Labels{"route": "test"}); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestPanicContainment: a panicking handler yields a typed 500 and the
// daemon keeps serving.
func TestPanicContainment(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	srv.mux.Handle("GET /boom", srv.wrap("boom", false, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "recovered panic") || er.Stage != "internal" {
		t.Errorf("error response = %+v, want contained internal panic", er)
	}
	if got := srv.Registry().Snapshot().Counter("ccdac_serve_panics_total", obs.Labels{"route": "boom"}); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	// Still alive.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: status %d, want 200", resp.StatusCode)
	}
}

// TestBadRequests: malformed JSON, unknown fields and invalid configs
// are the client's fault.
func TestBadRequests(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		wantStage  string
	}{
		{"malformed", `{"bits":`, ""},
		{"unknown field", `{"bits":8,"nope":1}`, ""},
		{"invalid config", `{"bits":99}`, "config"},
	} {
		resp, data := postGenerate(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if er.Stage != tc.wantStage {
			t.Errorf("%s: stage %q, want %q", tc.name, er.Stage, tc.wantStage)
		}
	}
}

// TestRequestIDAndLogCorrelation: the inbound X-Request-ID is echoed
// and appears in the structured log together with the root span ID.
func TestRequestIDAndLogCorrelation(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	srv := New(Options{Logger: slog.New(slog.NewJSONHandler(syncWriter{&logMu, &logBuf}, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate",
		strings.NewReader(`{"bits":4,"skip_nonlinearity":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var gr GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Errorf("X-Request-ID = %q, want echo of inbound value", got)
	}
	if gr.RequestID != "test-req-42" {
		t.Errorf("response request_id = %q, want %q", gr.RequestID, "test-req-42")
	}

	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	var line map[string]any
	found := false
	for _, l := range strings.Split(strings.TrimSpace(logged), "\n") {
		if err := json.Unmarshal([]byte(l), &line); err == nil && line["msg"] == "request" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no structured request log line in: %s", logged)
	}
	if line["request_id"] != "test-req-42" {
		t.Errorf("log request_id = %v, want test-req-42", line["request_id"])
	}
	if id, ok := line["span_id"].(float64); !ok || id == 0 {
		t.Errorf("log span_id = %v, want the nonzero root span ID", line["span_id"])
	}

	// A request without an inbound ID gets a generated 16-hex-char one.
	resp2, data := postGenerate(t, ts.URL, `{"bits":4,"skip_nonlinearity":true}`)
	if got := resp2.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated X-Request-ID = %q, want 16 hex chars (%s)", got, data)
	}
}

// syncWriter serializes slog output shared with test assertions.
type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestHealthEndpointsAndPprof exercises the probe and profiling routes.
// TestIdleProbesReadZeroInflight requires an idle daemon's /healthz
// and /metrics to report no request in flight: the gauge counts the
// admission-limited routes MaxInFlight bounds, not the probe reading
// it.
func TestIdleProbesReadZeroInflight(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.InFlight != 0 {
		t.Errorf("idle /healthz inflight = %d, want 0", hz.InFlight)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got, ok := parsePromText(t, string(text))["ccdac_serve_inflight"]; !ok || got != 0 {
		t.Errorf("idle ccdac_serve_inflight = %v (present %v), want 0", got, ok)
	}
}

func TestHealthEndpointsAndPprof(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hz map[string]any
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz["status"] != "ok" {
		t.Errorf("healthz = %d %s", resp.StatusCode, data)
	}
	// Liveness carries process facts only: no section re-solves fixed
	// problems on the probe's request path.
	if _, ok := hz["numeric"]; ok {
		t.Errorf("healthz carries a numeric section: %s", data)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz while serving = %d, want 200", resp.StatusCode)
	}
	srv.ready.Store(false)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index = %d, want profile listing", resp.StatusCode)
	}
}

// TestGracefulDrain: canceling the serve context finishes the in-flight
// request, returns nil, and stops accepting new connections.
func TestGracefulDrain(t *testing.T) {
	srv := New(Options{Addr: "127.0.0.1:0", DrainTimeout: 30 * time.Second, Logger: quietLogger()})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never bound a listener")
		}
		time.Sleep(time.Millisecond)
	}
	base := "http://" + srv.Addr()

	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/generate", "application/json",
			strings.NewReader(`{"bits":8,"max_parallel":2}`))
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		inflight <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request enter the pipeline
	cancel()

	if err := <-inflight; err != nil {
		t.Errorf("in-flight request not drained cleanly: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ListenAndServe = %v, want nil after drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting connections after drain")
	}
}

// TestMetricsEndpointValidPrometheus: the exposition must parse, and
// scrape-time process gauges must be present.
func TestMetricsEndpointValidPrometheus(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postGenerate(t, ts.URL, `{"bits":5,"max_parallel":2,"skip_nonlinearity":true}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	series := parsePromText(t, string(text))
	for _, want := range []string{
		"ccdac_serve_uptime_seconds",
		"ccdac_serve_inflight",
		"ccdac_serve_goroutines",
		"ccdac_core_runs_total",
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// parsePromText validates text against the Prometheus exposition
// grammar (comments, metric names, escaped label values, float
// samples) and returns every sample as seriesKey -> value.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	nameRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	series := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# TYPE ") && !strings.HasPrefix(line, "# HELP ") {
				t.Fatalf("line %d: malformed comment %q", ln, line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("line %d: no sample value in %q", ln, line)
		}
		key, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln, val, err)
		}
		name := key
		if j := strings.IndexByte(key, '{'); j >= 0 {
			name = key[:j]
			validatePromLabels(t, ln, key[j:])
		}
		if !nameRe.MatchString(name) {
			t.Fatalf("line %d: bad metric name %q", ln, name)
		}
		series[key] = v
	}
	return series
}

// validatePromLabels checks one {k="v",...} label block, including the
// escape rules for label values (only \\, \", and \n are legal).
func validatePromLabels(t *testing.T, ln int, s string) {
	t.Helper()
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		t.Fatalf("line %d: malformed label block %q", ln, s)
	}
	rest := s[1 : len(s)-1]
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || !labelRe.MatchString(rest[:eq]) {
			t.Fatalf("line %d: bad label name in %q", ln, rest)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			t.Fatalf("line %d: unquoted label value in %q", ln, rest)
		}
		rest = rest[1:]
		for {
			if rest == "" {
				t.Fatalf("line %d: unterminated label value in %q", ln, s)
			}
			c := rest[0]
			if c == '"' {
				rest = rest[1:]
				break
			}
			if c == '\n' {
				t.Fatalf("line %d: raw newline in label value of %q", ln, s)
			}
			if c == '\\' {
				if len(rest) < 2 || (rest[1] != '\\' && rest[1] != '"' && rest[1] != 'n') {
					t.Fatalf("line %d: illegal escape %q in %q", ln, rest[:min(2, len(rest))], s)
				}
				rest = rest[2:]
				continue
			}
			rest = rest[1:]
		}
		if rest == "" {
			return
		}
		if !strings.HasPrefix(rest, ",") {
			t.Fatalf("line %d: expected ',' between labels in %q", ln, s)
		}
		rest = rest[1:]
	}
}
