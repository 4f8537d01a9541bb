package ccdac

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ccdac/internal/fault"
)

func TestGenerateWithTrace(t *testing.T) {
	res, err := Generate(Config{Bits: 6, MaxParallel: 2, ThetaSteps: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Config.Trace set but Result.Trace is nil")
	}
	spans := res.Trace.Spans()
	seen := map[string]bool{}
	var root *SpanRecord
	for i := range spans {
		seen[spans[i].Name] = true
		if spans[i].ParentID == 0 {
			root = &spans[i]
		}
	}
	for _, name := range []string{
		"generate", StagePlacement, StageRouting, StageExtraction, StageAnalysis,
	} {
		if !seen[name] {
			t.Errorf("no span named %q in the trace", name)
		}
	}
	if root == nil || root.Name != "generate" {
		t.Fatalf("root span = %+v, want the generate root", root)
	}

	// The stage spans must account for (nearly) all of the root's wall
	// time: untraced gaps larger than 10% mean a stage lost its span.
	// A ~1 ms run can also lose 10% to one scheduler stall in the glue
	// between stages, so the bound judges the best of three runs; a
	// stage without a span leaves the same gap in all three.
	best := stageCoverage(spans)
	for run := 1; run < 3 && best < 0.9; run++ {
		again, err := Generate(Config{Bits: 6, MaxParallel: 2, ThetaSteps: 2, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		best = max(best, stageCoverage(again.Trace.Spans()))
	}
	if best < 0.9 {
		t.Errorf("stage spans cover %.1f%% (<90%%) of the best of three runs", 100*best)
	}

	// JSONL output: one valid JSON object per line, covering the stages.
	var buf bytes.Buffer
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		lines++
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if ev["name"] == "" || ev["start"] == "" {
			t.Fatalf("line %d missing required fields: %s", lines, sc.Text())
		}
	}
	if lines != len(spans) {
		t.Errorf("JSONL has %d lines for %d spans", lines, len(spans))
	}

	// Prometheus output carries the run counter.
	buf.Reset()
	if err := res.Trace.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ccdac_core_runs_total 1") {
		t.Errorf("Prometheus dump missing the run counter:\n%s", buf.String())
	}
	if got := res.Trace.Counter("ccdac_core_runs_total"); got != 1 {
		t.Errorf("Counter(ccdac_core_runs_total) = %d, want 1", got)
	}

	// The stage tree names the root and every top-level stage.
	tree := res.Trace.StageTree()
	for _, name := range []string{"generate", StageRouting, StageAnalysis} {
		if !strings.Contains(tree, name) {
			t.Errorf("stage tree missing %q:\n%s", name, tree)
		}
	}
}

// stageCoverage returns the share of the root span's wall time its
// direct children cover (1 for an instantaneous root).
func stageCoverage(spans []SpanRecord) float64 {
	var root SpanRecord
	for _, s := range spans {
		if s.ParentID == 0 {
			root = s
		}
	}
	var staged int64
	for _, s := range spans {
		if s.ParentID == root.ID {
			staged += s.Duration.Nanoseconds()
		}
	}
	if total := root.Duration.Nanoseconds(); total > 0 {
		return float64(staged) / float64(total)
	}
	return 1
}

func TestGenerateWithoutTraceHasNoTrace(t *testing.T) {
	res, err := Generate(Config{Bits: 4, SkipNonlinearity: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace set without Config.Trace")
	}
}

func TestGenerateBestBCWithTrace(t *testing.T) {
	best, _, err := GenerateBestBC(Config{Bits: 6, ThetaSteps: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if best.Trace == nil {
		t.Fatal("best result missing the sweep trace")
	}
	candidates := 0
	for _, s := range best.Trace.Spans() {
		if s.Name == "bestbc.candidate" {
			candidates++
		}
	}
	if candidates == 0 {
		t.Error("no bestbc.candidate spans recorded in the sweep trace")
	}
}

func TestPipelineErrorCarriesWarnings(t *testing.T) {
	defer fault.Reset()
	// A promotion abandoned before an injected analysis failure: the
	// public error must still surface the accumulated degradations.
	fault.Enable(fault.StageRoute, 1, errors.New("injected routing failure"))
	analyzeFail := errors.New("injected analysis failure")
	fault.Enable(fault.StageAnalyze, 0, analyzeFail)
	_, err := Generate(Config{Bits: 6, MaxParallel: 2, ThetaSteps: 2})
	if !errors.Is(err, ErrAnalysis) {
		t.Fatalf("want ErrAnalysis, got %v", err)
	}
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PipelineError: %v", err)
	}
	if len(pe.Warnings) == 0 {
		t.Fatal("PipelineError.Warnings empty; degradations were lost on failure")
	}
	found := false
	for _, w := range pe.Warnings {
		if strings.Contains(w, "keeping last-good layout") {
			found = true
		}
	}
	if !found {
		t.Errorf("Warnings = %q, want the promotion degradation", pe.Warnings)
	}
}

func TestTraceRecordsErroredStage(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected extraction failure")
	fault.Enable(fault.StageExtract, 0, sentinel)
	_, err := Generate(Config{Bits: 4, SkipNonlinearity: true, Trace: true})
	if !errors.Is(err, ErrExtraction) {
		t.Fatalf("want ErrExtraction, got %v", err)
	}
	// The public Result is discarded on failure, so the assertion that
	// the failing span was marked errored lives in internal/core; here
	// the contract is that a failed traced run still returns the typed
	// error (the trace must not mask it).
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("traced failure lost the typed error: %v", err)
	}
}
