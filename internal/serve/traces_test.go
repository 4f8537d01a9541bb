package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdac/internal/leakcheck"
	"ccdac/internal/obs"
)

// coreStages are the pipeline phases every successful generate runs;
// the SSE acceptance test requires a start and end event for each.
var coreStages = []string{"placement", "routing", "extraction", "analysis"}

// sseCollect reads Server-Sent Events from body until an event of type
// stopAt arrives (or the stream ends), decoding each data payload as an
// obs.Event. Comment lines (heartbeats) are skipped.
func sseCollect(t *testing.T, body io.Reader, stopAt obs.EventType) []obs.Event {
	t.Helper()
	var out []obs.Event
	var data string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			var ev obs.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, ev)
			data = ""
			if ev.Type == stopAt {
				return out
			}
		}
	}
	return out
}

// waitSubscribers polls until the bus reports n subscribers, so tests
// know the SSE stream is armed before firing the request.
func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.bus.Stats().Subscribers < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("bus never reached %d subscribers", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEventsSSEStreamsLiveSpans is the end-to-end acceptance test: a
// client subscribed to /v1/events for an in-flight 10-bit generate
// receives ordered span start/end events for every core pipeline stage,
// delivered over the live stream (the stream closes itself at the
// request's trace_finish, which the server emits before it writes the
// response).
func TestEventsSSEStreamsLiveSpans(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const reqID = "sse-e2e-1"
	sseResp, err := http.Get(ts.URL + "/v1/events?request_id=" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	waitSubscribers(t, srv, 1)

	events := make(chan []obs.Event, 1)
	go func() { events <- sseCollect(t, sseResp.Body, obs.EventTraceFinish) }()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/generate",
		strings.NewReader(`{"bits":10,"cache":"bypass"}`))
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status = %d", resp.StatusCode)
	}

	var evs []obs.Event
	select {
	case evs = <-events:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream never delivered trace_finish")
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != obs.EventTraceFinish {
		t.Fatalf("stream did not end at trace_finish: %+v", evs)
	}
	var lastSeq uint64
	started := map[string]int{}
	ended := map[string]int{}
	for i, ev := range evs {
		if ev.Tag != reqID {
			t.Errorf("event %d leaked from another request: %+v", i, ev)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("event %d: seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case obs.EventSpanStart:
			if _, dup := started[ev.Name]; !dup {
				started[ev.Name] = i
			}
		case obs.EventSpanEnd:
			ended[ev.Name] = i
		}
	}
	for _, stage := range coreStages {
		si, sok := started[stage]
		ei, eok := ended[stage]
		if !sok || !eok {
			t.Errorf("stage %q missing span events (start=%v end=%v)", stage, sok, eok)
			continue
		}
		if si >= ei {
			t.Errorf("stage %q end (event %d) not after start (event %d)", stage, ei, si)
		}
	}
	if _, ok := started["serve.generate"]; !ok {
		t.Error("root serve.generate span_start missing")
	}
}

func TestTraceIndexAndGet(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postGenerate(t, ts.URL, `{"bits":6,"cache":"bypass"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status = %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var idx traceIndexResponse
	if err := json.NewDecoder(r.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(idx.Traces) == 0 || idx.Stats.Offered == 0 {
		t.Fatalf("index empty after a generate: %+v", idx)
	}
	sum := idx.Traces[0]
	if sum.ID == "" || sum.Reason == "" || sum.Spans == 0 {
		t.Fatalf("index row incomplete: %+v", sum)
	}

	// Native JSON form: full span tree.
	r, err = http.Get(ts.URL + "/debug/traces/" + sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	var full traceResponse
	if err := json.NewDecoder(r.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if full.TraceID != sum.ID || len(full.Spans) != sum.Spans {
		t.Fatalf("trace body mismatch: %+v vs index %+v", full, sum)
	}

	// OTLP form: a resourceSpans export carrying the same trace ID.
	r, err = http.Get(ts.URL + "/debug/traces/" + sum.ID + "?format=otlp")
	if err != nil {
		t.Fatal(err)
	}
	otlp, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var doc map[string]any
	if err := json.Unmarshal(otlp, &doc); err != nil {
		t.Fatalf("OTLP body not JSON: %v", err)
	}
	if _, ok := doc["resourceSpans"]; !ok {
		t.Fatalf("OTLP body missing resourceSpans: %s", otlp)
	}
	if !bytes.Contains(otlp, []byte(sum.ID)) {
		t.Error("OTLP export missing the trace ID")
	}

	for path, want := range map[string]int{
		"/debug/traces/nosuchtrace":               http.StatusNotFound,
		"/debug/traces/" + sum.ID + "?format=xml": http.StatusBadRequest,
	} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}
}

// TestTraceNamesCovarianceEngine: a generate trace alone says which
// engine built the covariance. Its analysis span names the engine and
// the lattice fit's verdict, and marks a matrix the run took from the
// covariance memo.
func TestTraceNamesCovarianceEngine(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	analysisAttrs := func(body string) map[string]string {
		t.Helper()
		if resp, data := postGenerate(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
		}
		getJSON := func(path string, v any) {
			t.Helper()
			r, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			if err := json.NewDecoder(r.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		var idx traceIndexResponse
		getJSON("/debug/traces", &idx)
		if len(idx.Traces) == 0 {
			t.Fatalf("%s: no trace recorded", body)
		}
		var full traceResponse
		getJSON("/debug/traces/"+idx.Traces[0].ID, &full)
		for _, sp := range full.Spans {
			if sp.Name == "analysis" {
				return sp.Attrs
			}
		}
		t.Fatalf("%s: trace has no analysis span", body)
		return nil
	}

	a := analysisAttrs(`{"bits":6,"cache":"bypass"}`)
	if a["cov_engine"] != "quadforms" || a["cov_lattice"] != "separable" || a["cov_dense_reason"] != "" || a["cov_memo"] != "" {
		t.Errorf("bypass generate analysis attrs = %v, want cov_engine quadforms, cov_lattice separable, no dense reason, no memo mark", a)
	}
	// Two theta counts over one layout: the second takes the first's
	// covariance from the memo.
	analysisAttrs(`{"bits":6,"theta_steps":5}`)
	a = analysisAttrs(`{"bits":6,"theta_steps":6}`)
	if a["cov_engine"] != "quadforms" || a["cov_memo"] != "hit" {
		t.Errorf("memoized generate analysis attrs = %v, want cov_engine quadforms and cov_memo hit", a)
	}
}

func TestTraceRecorderDisabled(t *testing.T) {
	srv := New(Options{TraceCapacity: -1, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postGenerate(t, ts.URL, `{"bits":6}`)
	r, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("disabled recorder index = %d, want 404", r.StatusCode)
	}
}

// TestExemplarsInOpenMetrics: a request retained by the recorder must
// leave a trace_id exemplar on its latency bucket — but only in the
// OpenMetrics exposition; the classic Prometheus format must stay
// exemplar-free.
func TestExemplarsInOpenMetrics(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postGenerate(t, ts.URL, `{"bits":6,"cache":"bypass"}`)

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	om := string(body)
	if !strings.Contains(r.Header.Get("Content-Type"), "application/openmetrics-text") {
		t.Errorf("OM content type = %q", r.Header.Get("Content-Type"))
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF trailer")
	}
	exemplared := false
	for _, line := range strings.Split(om, "\n") {
		if strings.HasPrefix(line, "ccdac_serve_request_seconds_bucket") && strings.Contains(line, `# {trace_id="`) {
			exemplared = true
		}
	}
	if !exemplared {
		t.Errorf("no exemplar on any request_seconds bucket:\n%s", om)
	}
	if !strings.Contains(om, "ccdac_obs_traces_offered_total") {
		t.Error("recorder stats missing from exposition")
	}
	if !strings.Contains(om, "ccdac_build_info{") {
		t.Error("build info gauge missing from exposition")
	}

	// Plain scrape: classic format, no exemplar syntax, no EOF.
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if s := string(body); strings.Contains(s, "# {trace_id") || strings.Contains(s, "# EOF") {
		t.Error("plain Prometheus exposition leaked OpenMetrics syntax")
	}
}

func TestSlowRequestLogsWarn(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: &mu}, nil))
	// Any real generate exceeds a 1ns threshold.
	srv := New(Options{SlowRequest: time.Nanosecond, Logger: logger})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postGenerate(t, ts.URL, `{"bits":6,"cache":"bypass"}`)

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	found := false
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, `"slow request"`) {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if entry["route"] != "generate" {
			continue
		}
		found = true
		if entry["level"] != "WARN" {
			t.Errorf("slow request level = %v, want WARN", entry["level"])
		}
		if id, _ := entry["trace_id"].(string); len(id) != 32 {
			t.Errorf("slow request trace_id = %v, want retained 32-hex ID", entry["trace_id"])
		}
		if _, ok := entry["span_id"]; !ok {
			t.Error("slow request log missing root span_id")
		}
	}
	if !found {
		t.Fatalf("no slow-request WARN for the generate route:\n%s", logs)
	}
}

type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestTracePersistence: traces retained for cause (here: a pipeline
// error) are durably persisted as OTLP blobs in the artifact store,
// indexed under trace/<id>, and surfaced as artifact_hash in
// /debug/traces/{id} — servable back via /v1/artifacts/{hash}.
func TestTracePersistence(t *testing.T) {
	srv := New(Options{StoreDir: t.TempDir(), Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	// An invalid config errors inside the pipeline: the trace is
	// retained with reason "error" and queued for persistence.
	resp, _ := postGenerate(t, ts.URL, `{"bits":99}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config status = %d, want 400", resp.StatusCode)
	}
	srv.FlushStore()

	var errored *obs.TraceSummary
	for _, sum := range srv.recorder.List() {
		if sum.Reason == obs.ReasonError {
			errored = &sum
			break
		}
	}
	if errored == nil {
		t.Fatal("errored trace not retained")
	}
	hash, ok := srv.store.LookupIndex(traceIndexKey(errored.ID))
	if !ok {
		t.Fatal("errored trace not indexed in the store")
	}

	r, err := http.Get(ts.URL + "/debug/traces/" + errored.ID)
	if err != nil {
		t.Fatal(err)
	}
	var full traceResponse
	if err := json.NewDecoder(r.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if full.ArtifactHash != hash {
		t.Errorf("artifact_hash = %q, want %q", full.ArtifactHash, hash)
	}
	if full.Err == "" || full.Reason != obs.ReasonError {
		t.Errorf("persisted trace lost its error classification: %+v", full)
	}

	// The durable blob is the OTLP export, servable by hash.
	r, err = http.Get(ts.URL + "/v1/artifacts/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch = %d", r.StatusCode)
	}
	if !bytes.Contains(blob, []byte("resourceSpans")) || !bytes.Contains(blob, []byte(errored.ID)) {
		t.Error("stored artifact is not the trace's OTLP export")
	}
}

// TestMergeAndSSEChurnUnderLoad runs concurrent generates, /metrics
// scrapes (both formats), and SSE subscriber churn together — the
// -race matrix entry for the whole telemetry pipeline. Totals must
// reconcile after the dust settles.
func TestMergeAndSSEChurnUnderLoad(t *testing.T) {
	defer leakcheck.Check(t)()
	const requests = 24
	srv := New(Options{MaxInFlight: requests, CacheMaxBytes: -1, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Scrapers alternate Prometheus and OpenMetrics.
	for i := 0; i < 2; i++ {
		churn.Add(1)
		go func(om bool) {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
				if om {
					req.Header.Set("Accept", "application/openmetrics-text")
				}
				r, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}(i == 0)
	}
	// SSE subscribers connect, read briefly, and drop mid-stream; the
	// context deadline bounds each connection so an idle stream (no
	// events between heartbeats) never stalls the churn loop.
	for i := 0; i < 4; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/events", nil)
				if r, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, r.Body)
					r.Body.Close()
				}
				cancel()
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postGenerate(t, ts.URL,
				fmt.Sprintf(`{"bits":%d,"cache":"bypass"}`, 4+i%3))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("generate %d status = %d: %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	snap := srv.Registry().Snapshot()
	if got := snap.Counter("ccdac_serve_requests_total", obs.Labels{"route": "generate", "code": "200"}); got != requests {
		t.Errorf("request counter = %d, want %d", got, requests)
	}
	if st := srv.recorder.Stats(); st.Offered != requests {
		t.Errorf("recorder offered = %d, want %d", st.Offered, requests)
	}
	// Disconnected SSE handlers unsubscribe asynchronously; give them a
	// moment before calling a lingering subscription a leak.
	deadline := time.Now().Add(5 * time.Second)
	for srv.bus.Stats().Subscribers != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.bus.Stats(); st.Subscribers != 0 {
		t.Errorf("%d SSE subscribers leaked", st.Subscribers)
	}
}
