package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestFFTDirective: the fft field is kept for compatibility. An unknown
// value is still a 400, on /v1/generate and on a /v1/batch item; "off"
// no longer selects an engine, so it is answered from the auto
// request's cache entry with the same metrics.
func TestFFTDirective(t *testing.T) {
	srv := New(Options{Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postGenerate(t, ts.URL, `{"bits":5,"fft":"fast"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown fft directive: status %d, want 400: %s", resp.StatusCode, data)
	}
	bresp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"requests":[{"bits":5,"fft":"fast"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(bresp.Body)
	bresp.Body.Close()
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil || len(br.Items) != 1 {
		t.Fatalf("batch with an unknown fft directive: status %d: %s", bresp.StatusCode, data)
	}
	if br.Items[0].Status != http.StatusBadRequest {
		t.Errorf("batch item with an unknown fft directive: status %d, want 400", br.Items[0].Status)
	}

	resp, data = postGenerate(t, ts.URL, `{"bits":5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto request: status %d: %s", resp.StatusCode, data)
	}
	auto := decodeGenerate(t, data)
	if auto.CacheStatus != "cold" {
		t.Fatalf("auto request cache_status = %q, want cold", auto.CacheStatus)
	}

	resp, data = postGenerate(t, ts.URL, `{"bits":5,"fft":"off"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fft=off request: status %d: %s", resp.StatusCode, data)
	}
	off := decodeGenerate(t, data)
	if off.CacheStatus != "hit" {
		t.Errorf("fft=off cache_status = %q, want hit (the auto request's entry)", off.CacheStatus)
	}
	if !reflect.DeepEqual(off.Metrics, auto.Metrics) {
		t.Errorf("fft=off metrics %+v differ from auto %+v", off.Metrics, auto.Metrics)
	}
}
