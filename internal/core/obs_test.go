package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ccdac/internal/fault"
	"ccdac/internal/obs"
)

// traced runs f under a fresh live trace and returns the finished
// trace's spans and metrics.
func traced(t *testing.T, f func(ctx context.Context)) ([]obs.SpanRecord, obs.MetricsSnapshot) {
	t.Helper()
	tr := obs.New(obs.Options{})
	f(obs.WithTrace(context.Background(), tr))
	tr.Finish()
	return tr.Spans(), tr.Registry().Snapshot()
}

func TestTraceCoversEveryStage(t *testing.T) {
	spans, snap := traced(t, func(ctx context.Context) {
		if _, err := RunContext(ctx, spiralCfg(6, 2)); err != nil {
			t.Fatal(err)
		}
	})
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.Name] = true
	}
	for _, stage := range []string{
		fault.StagePlace, fault.StageRoute, fault.StageExtract, fault.StageAnalyze,
		"route.wires", "extract.bitnets", "analysis.sweep",
	} {
		if !seen[stage] {
			t.Errorf("no span recorded for %q (got %v)", stage, seen)
		}
	}
	if got := snap.Counter("ccdac_core_runs_total", nil); got != 1 {
		t.Errorf("ccdac_core_runs_total = %d, want 1", got)
	}
	for _, stage := range []string{fault.StagePlace, fault.StageAnalyze} {
		h := snap.Histograms[`ccdac_core_stage_seconds{stage="`+stage+`"}`]
		if h.Count == 0 {
			t.Errorf("no ccdac_core_stage_seconds samples for stage %q", stage)
		}
	}
}

func TestFaultMarksFailingSpanErrored(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected extraction failure")
	fault.Enable(fault.StageExtract, 0, sentinel)

	spans, _ := traced(t, func(ctx context.Context) {
		if _, err := RunContext(ctx, spiralCfg(4, 0)); !errors.Is(err, sentinel) {
			t.Fatalf("want injected failure, got %v", err)
		}
	})
	var found bool
	for _, s := range spans {
		if s.Name == fault.StageExtract {
			found = true
			if s.Err == "" {
				t.Error("extraction span not marked errored")
			} else if !strings.Contains(s.Err, "injected extraction failure") {
				t.Errorf("extraction span error = %q, want the injected cause", s.Err)
			}
		}
	}
	if !found {
		t.Fatal("no extraction span recorded for the failing run")
	}
	if !fault.Fired(fault.StageExtract) {
		t.Error("injected extraction fault never fired")
	}
}

func TestParWireRetryCountedStructurally(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected routing failure")
	fault.Enable(fault.StageRoute, 1, sentinel)
	var r *Result
	_, snap := traced(t, func(ctx context.Context) {
		var err error
		r, err = RunContext(ctx, spiralCfg(6, 4))
		if err != nil {
			t.Fatalf("failed promotion must degrade, not fail: %v", err)
		}
	})
	if r.Stats.ParWireRetries == 0 {
		t.Error("Stats.ParWireRetries = 0 after a forced promotion retry")
	}
	if got := snap.Counter("ccdac_core_parwire_retry_total", nil); got == 0 {
		t.Error("ccdac_core_parwire_retry_total = 0 after a forced promotion retry")
	}
}

func TestParWireAbandonCountedStructurally(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected routing failure")
	fault.Enable(fault.StageRoute, 1, sentinel)
	var r *Result
	_, snap := traced(t, func(ctx context.Context) {
		var err error
		r, err = RunContext(ctx, spiralCfg(6, 2))
		if err != nil {
			t.Fatalf("failed minimal promotion must degrade, not fail: %v", err)
		}
	})
	if r.Stats.ParWireAbandoned == 0 {
		t.Error("Stats.ParWireAbandoned = 0 after an abandoned promotion")
	}
	if got := snap.Counter("ccdac_core_parwire_abandoned_total", nil); got == 0 {
		t.Error("ccdac_core_parwire_abandoned_total = 0 after an abandoned promotion")
	}
}

func TestStageErrorCarriesWarnings(t *testing.T) {
	defer fault.Reset()
	// Fail the analysis stage after routing degradations have already
	// accumulated: the StageError must carry them out of the run.
	routeFail := errors.New("injected routing failure")
	analyzeFail := errors.New("injected analysis failure")
	fault.Enable(fault.StageRoute, 1, routeFail)
	fault.Enable(fault.StageAnalyze, 0, analyzeFail)
	_, err := Run(spiralCfg(6, 2))
	if !errors.Is(err, analyzeFail) {
		t.Fatalf("want the injected analysis failure, got %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a *StageError: %v", err)
	}
	if len(se.Warnings) == 0 {
		t.Fatal("StageError.Warnings empty; accumulated degradations were lost")
	}
	found := false
	for _, w := range se.Warnings {
		if strings.Contains(w, "keeping last-good layout") {
			found = true
		}
	}
	if !found {
		t.Errorf("StageError.Warnings = %q, want the promotion degradation", se.Warnings)
	}
}
