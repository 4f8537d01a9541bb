package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObserveExemplarAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", nil, []float64{0.1, 1})
	h.Observe(0.05)
	h.ObserveExemplar(0.5, "trace-a")
	h.ObserveExemplar(0.7, "trace-b") // same bucket: last write wins

	s := h.Snapshot()
	if len(s.Exemplars) != 3 {
		t.Fatalf("exemplars len = %d, want len(counts)=3", len(s.Exemplars))
	}
	if s.Exemplars[0] != nil {
		t.Errorf("bucket 0 has unexpected exemplar %+v", s.Exemplars[0])
	}
	ex := s.Exemplars[1]
	if ex == nil || ex.TraceID != "trace-b" || ex.Value != 0.7 {
		t.Errorf("bucket 1 exemplar = %+v, want trace-b/0.7", ex)
	}
	if s.Count != 3 {
		t.Errorf("count = %d, want 3 (exemplar observes also count)", s.Count)
	}
}

func TestMergeExemplarsNewestWins(t *testing.T) {
	src := NewRegistry()
	sh := src.Histogram("req_seconds", nil, []float64{0.1, 1})
	sh.ObserveExemplar(0.5, "newer")

	dst := NewRegistry()
	dh := dst.Histogram("req_seconds", nil, []float64{0.1, 1})
	dh.ObserveExemplar(0.6, "older")
	// Backdate the destination's exemplar so the merged one is newer.
	dh.mu.Lock()
	dh.exemplars[1].Time = time.Now().Add(-time.Hour)
	dh.mu.Unlock()

	dst.Merge(src.Snapshot())
	got := dh.Snapshot()
	if ex := got.Exemplars[1]; ex == nil || ex.TraceID != "newer" {
		t.Errorf("merged exemplar = %+v, want newest (trace newer)", got.Exemplars[1])
	}
	if got.Count != 2 {
		t.Errorf("merged count = %d, want 2", got.Count)
	}
}

func TestWriteOpenMetricsExemplarsAndEOF(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", Labels{"kind": "x"}).Add(4)
	r.Gauge("depth", nil).Set(2.5)
	h := r.Histogram("req_seconds", nil, []float64{0.1, 1})
	h.ObserveExemplar(0.5, "abc123")

	var om bytes.Buffer
	if err := WriteOpenMetrics(&om, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output missing # EOF trailer:\n%s", out)
	}
	// Counter TYPE line drops the _total sample suffix.
	if !strings.Contains(out, "# TYPE ops counter\n") {
		t.Errorf("counter family not stripped of _total:\n%s", out)
	}
	if !strings.Contains(out, `ops_total{kind="x"} 4`) {
		t.Errorf("counter sample missing:\n%s", out)
	}
	// The 0.5 sample lands in the le="1" bucket and carries its exemplar.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `req_seconds_bucket{le="1"}`) {
			found = true
			if !strings.Contains(line, `# {trace_id="abc123"} 0.5 `) {
				t.Errorf("bucket line missing exemplar: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("le=1 bucket line missing:\n%s", out)
	}

	// The plain Prometheus rendering of the same snapshot must stay
	// exemplar-free and EOF-free: exemplar syntax is OpenMetrics-only.
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s := prom.String(); strings.Contains(s, "trace_id") || strings.Contains(s, "# EOF") {
		t.Errorf("Prometheus output leaked OpenMetrics syntax:\n%s", s)
	}
	if !strings.Contains(prom.String(), "# TYPE ops_total counter\n") {
		t.Errorf("Prometheus counter TYPE must keep _total:\n%s", prom.String())
	}
}

// TestMergeDeltaUnderChurn is the merge concurrency contract:
// per-request registries merging into a process registry while a
// scrape-style Snapshot reader and exposition writer run — totals must
// reconcile exactly once the writers stop.
func TestMergeDeltaUnderChurn(t *testing.T) {
	global := NewRegistry()
	const writers, rounds, perRound = 8, 50, 3

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrape loop: snapshot, render.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := WriteOpenMetrics(&buf, global.Snapshot()); err != nil {
				t.Errorf("exposition during churn: %v", err)
			}
		}
	}()

	var writerWG sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		writerWG.Add(1)
		go func(wtr int) {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				// One per-request registry per round, like serve's run().
				req := NewRegistry()
				req.Counter("churn_ops_total", nil).Add(perRound)
				req.Gauge("churn_last", nil).Set(float64(i))
				h := req.Histogram("churn_seconds", nil, []float64{0.001, 0.1})
				h.ObserveExemplar(0.01, fmt.Sprintf("w%d-%d", wtr, i))
				global.Merge(req.Snapshot())
			}
		}(wtr)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	final := global.Snapshot()
	if got := final.Counter("churn_ops_total", nil); got != writers*rounds*perRound {
		t.Errorf("counter = %d, want %d", got, writers*rounds*perRound)
	}
	hs := final.Histograms[SeriesKey("churn_seconds", nil)]
	if hs.Count != writers*rounds {
		t.Errorf("histogram count = %d, want %d", hs.Count, writers*rounds)
	}
	if len(hs.Exemplars) == 0 || hs.Exemplars[1] == nil {
		t.Error("merged histogram lost its exemplars")
	}
}
