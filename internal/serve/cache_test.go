package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdac/internal/keycheck"
	"ccdac/internal/leakcheck"
)

func decodeGenerate(t *testing.T, data []byte) GenerateResponse {
	t.Helper()
	var gr GenerateResponse
	if err := json.Unmarshal(data, &gr); err != nil {
		t.Fatalf("decoding generate response: %v: %s", err, data)
	}
	return gr
}

// TestCacheCanonicalization: two bodies that differ only in JSON field
// order, explicitly-spelled defaults, and result-irrelevant knobs
// (workers) must share one cache entry — and the cached metrics must be
// identical to the cold ones.
func TestCacheCanonicalization(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postGenerate(t, ts.URL,
		`{"skip_nonlinearity":true,"bits":5,"style":"spiral","tech_node":"finfet12","workers":1,"cache":"default","max_parallel":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", resp.StatusCode, data)
	}
	cold := decodeGenerate(t, data)
	if cold.CacheStatus != "cold" {
		t.Fatalf("first request cache_status = %q, want cold", cold.CacheStatus)
	}
	if len(cold.Counters) == 0 {
		t.Error("cold response missing its counter snapshot")
	}

	// Same canonical request: field order scrambled, defaults omitted.
	resp, data = postGenerate(t, ts.URL, `{"bits":5,"skip_nonlinearity":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", resp.StatusCode, data)
	}
	warm := decodeGenerate(t, data)
	if warm.CacheStatus != "hit" {
		t.Fatalf("equivalent request cache_status = %q, want hit", warm.CacheStatus)
	}
	if warm.Counters != nil {
		t.Error("cache-hit response reported counters, but no generation ran for it")
	}
	if cm, wm := fmt.Sprintf("%+v", cold.Metrics), fmt.Sprintf("%+v", warm.Metrics); cm != wm {
		t.Errorf("cached metrics differ from cold metrics:\ncold: %s\nwarm: %s", cm, wm)
	}

	// A genuinely different request must not hit.
	resp, data = postGenerate(t, ts.URL, `{"bits":6,"skip_nonlinearity":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distinct request: status %d: %s", resp.StatusCode, data)
	}
	if got := decodeGenerate(t, data).CacheStatus; got != "cold" {
		t.Errorf("distinct request cache_status = %q, want cold", got)
	}
}

// TestCacheBypass: cache:"bypass" recomputes even with a warm entry,
// and an unknown directive is the client's fault.
func TestCacheBypass(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"bits":5,"skip_nonlinearity":true}`
	postGenerate(t, ts.URL, body) // warm the entry
	before := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil)

	resp, data := postGenerate(t, ts.URL, `{"bits":5,"skip_nonlinearity":true,"cache":"bypass"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bypass request: status %d: %s", resp.StatusCode, data)
	}
	gr := decodeGenerate(t, data)
	if gr.CacheStatus != "bypass" {
		t.Errorf("cache_status = %q, want bypass", gr.CacheStatus)
	}
	if len(gr.Counters) == 0 {
		t.Error("bypass response missing its counter snapshot")
	}
	after := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil)
	if after != before+1 {
		t.Errorf("core runs %d -> %d, want a real recomputation (+1)", before, after)
	}

	resp, data = postGenerate(t, ts.URL, `{"bits":5,"cache":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown cache directive: status %d, want 400: %s", resp.StatusCode, data)
	}
}

// TestSingleflightCollapse is the dedup acceptance bar: 8 concurrent
// identical requests produce exactly one generation — one cold
// response, the rest shared or served from the cache the generation
// filled.
func TestSingleflightCollapse(t *testing.T) {
	const clients = 8
	srv := New(Options{MaxInFlight: clients, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Slow enough (~hundreds of ms) that the stragglers arrive while
	// the generation is still running.
	body := `{"bits":9,"max_parallel":2,"theta_steps":64}`
	start := make(chan struct{})
	statuses := make([]string, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			var gr GenerateResponse
			if err := json.Unmarshal(data, &gr); err != nil {
				errs[i] = err
				return
			}
			statuses[i] = gr.CacheStatus
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	if runs := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil); runs != 1 {
		t.Errorf("ccdac_core_runs_total = %d, want 1 (all clients collapse to one generation)", runs)
	}
	cold := 0
	for i, st := range statuses {
		switch st {
		case "cold":
			cold++
		case "shared", "hit":
		default:
			t.Errorf("client %d: cache_status = %q", i, st)
		}
	}
	if cold != 1 {
		t.Errorf("%d cold responses, want exactly 1", cold)
	}
}

// TestSingleflightLeaderCancelHandoff: the client that started the
// generation gives up, a second client is already waiting — the work
// must transfer, not die with the leader. The follower gets a complete
// 200 and the process paid for exactly one generation.
func TestSingleflightLeaderCancelHandoff(t *testing.T) {
	defer leakcheck.Check(t)()
	srv := New(Options{MaxInFlight: 4, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// ~0.25 s on a 2-core host, every time: far longer than the
	// follower takes to subscribe.
	body := slowBody()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/generate", strings.NewReader(body))
		if err != nil {
			leaderDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- nil
	}()

	// Wait until the leader's pending generation is registered: the
	// leader is the result cache's one waiter.
	waiters := func() int64 {
		st, _ := srv.cacheStats()
		return st.Waiters
	}
	deadline := time.Now().Add(10 * time.Second)
	for waiters() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader generation never registered")
		}
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan GenerateResponse, 1)
	followerErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			followerErr <- err
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			followerErr <- fmt.Errorf("follower status %d: %s", resp.StatusCode, data)
			return
		}
		var gr GenerateResponse
		if err := json.Unmarshal(data, &gr); err != nil {
			followerErr <- err
			return
		}
		followerDone <- gr
	}()

	// Wait for the follower's subscription to land, then kill the
	// leader mid-generation: waiters drop 2 -> 1, the generation
	// survives.
	deadline = time.Now().Add(10 * time.Second)
	for waiters() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("follower never subscribed to the pending generation")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	<-leaderDone

	select {
	case gr := <-followerDone:
		if gr.CacheStatus != "shared" && gr.CacheStatus != "hit" {
			t.Errorf("follower cache_status = %q, want shared or hit", gr.CacheStatus)
		}
		if gr.Metrics.F3dBHz <= 0 {
			t.Errorf("follower got an empty result: %+v", gr.Metrics)
		}
	case err := <-followerErr:
		t.Fatalf("follower failed after leader cancel: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("follower never completed")
	}
	if runs := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil); runs != 1 {
		t.Errorf("ccdac_core_runs_total = %d, want 1 (handoff, not restart)", runs)
	}
}

// TestBatchDedupAndErrors: a batch fans through the same cache and
// shared-generation path — duplicate items collapse, invalid items fail
// alone, and the batch itself still returns 200.
func TestBatchDedupAndErrors(t *testing.T) {
	srv := New(Options{MaxInFlight: 8, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	items := make([]string, 0, 8)
	for i := 0; i < 6; i++ {
		items = append(items, `{"bits":5,"skip_nonlinearity":true,"theta_steps":0}`)
	}
	items = append(items, `{"bits":4,"skip_nonlinearity":true}`, `{"bits":99}`)
	body := `{"requests":[` + strings.Join(items, ",") + `]}`

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != len(items) {
		t.Fatalf("%d items in response, want %d", len(br.Items), len(items))
	}
	for i := 0; i < 7; i++ {
		if br.Items[i].Status != http.StatusOK || br.Items[i].Response == nil {
			t.Errorf("item %d: status %d, response %v", i, br.Items[i].Status, br.Items[i].Response)
		}
	}
	if br.Items[7].Status != http.StatusBadRequest || br.Items[7].Error == "" {
		t.Errorf("invalid item: status %d error %q, want 400 with message", br.Items[7].Status, br.Items[7].Error)
	}
	// Two distinct valid configurations -> at most two generations, no
	// matter that six of the items were identical.
	if runs := srv.Registry().Snapshot().Counter("ccdac_core_runs_total", nil); runs != 2 {
		t.Errorf("ccdac_core_runs_total = %d, want 2 (6 duplicates collapsed)", runs)
	}

	// Oversized batches are rejected up front.
	over := `{"requests":[` + strings.Repeat(`{"bits":4},`, 64) + `{"bits":4}]}`
	resp, err = http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("65-item batch: status %d, want 400", resp.StatusCode)
	}
}

// TestServeCacheEvictionBounded: a deliberately tiny result cache under
// concurrent distinct requests must evict rather than grow, and the
// cache statistics must be visible on /metrics.
func TestServeCacheEvictionBounded(t *testing.T) {
	srv := New(Options{MaxInFlight: 8, CacheMaxBytes: 400, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for bits := 4; bits <= 6; bits++ {
			wg.Add(1)
			go func(bits int) {
				defer wg.Done()
				body := fmt.Sprintf(`{"bits":%d,"skip_nonlinearity":true}`, bits)
				resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(bits)
		}
	}
	wg.Wait()

	st, ok := srv.cacheStats()
	if !ok {
		t.Fatal("cache unexpectedly disabled")
	}
	if st.Bytes > 400 {
		t.Errorf("cache bytes = %d, exceeds the 400-byte bound", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite 3 distinct entries and a one-entry budget")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	series := parsePromText(t, string(text))
	for _, want := range []string{
		"ccdac_serve_cache_hits_total",
		"ccdac_serve_cache_misses_total",
		"ccdac_serve_cache_evictions_total",
		"ccdac_serve_cache_bytes",
		`ccdac_memo_hits_total{cache="core_place"}`,
		`ccdac_memo_misses_total{cache="core_route"}`,
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if got := series["ccdac_serve_cache_evictions_total"]; got == 0 {
		t.Error("/metrics reports zero serve-cache evictions")
	}
}

// TestCacheKeyCompleteness: every GenerateRequest field moves the
// result-cache key under some style, or is excluded here with a reason.
func TestCacheKeyCompleteness(t *testing.T) {
	keycheck.Fields(t, []GenerateRequest{
		{Bits: 8},
		{Bits: 8, Style: "block-chessboard"},
		{Bits: 8, Style: "annealed"},
	}, cacheKey, map[string]string{
		"Workers": "results are bit-identical at any worker count",
		"Cache":   "a per-request directive, not an input of the result",
		"FFT":     "every generate builds its covariance through QuadForms; the field selects only a yield job's sampler",
	})
}
