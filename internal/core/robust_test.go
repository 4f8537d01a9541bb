package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ccdac/internal/fault"
	"ccdac/internal/place"
)

// These tests use the process-global fault registry; they are
// deliberately not t.Parallel() and always defer fault.Reset().

func spiralCfg(bits, par int) Config {
	return Config{Bits: bits, Style: place.Spiral, MaxParallel: par, ThetaSteps: 2}
}

func TestFaultEveryStage(t *testing.T) {
	sentinel := errors.New("injected stage failure")
	for _, stage := range []string{
		fault.StagePlace, fault.StageRoute, fault.StageExtract, fault.StageAnalyze,
	} {
		t.Run(stage, func(t *testing.T) {
			defer fault.Reset()
			fault.Enable(stage, 0, sentinel)
			r, err := Run(spiralCfg(4, 0))
			if err == nil {
				t.Fatalf("stage %s: expected injected failure, got result %+v", stage, r)
			}
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("stage %s: error is not a *StageError: %v", stage, err)
			}
			if se.Stage != stage {
				t.Errorf("stage attribution: got %q, want %q", se.Stage, stage)
			}
			if !errors.Is(err, sentinel) {
				t.Errorf("stage %s: cause not preserved through wrapping: %v", stage, err)
			}
			if !fault.Fired(stage) {
				t.Errorf("stage %s: fault did not fire", stage)
			}
		})
	}
}

func TestPanicIsContained(t *testing.T) {
	for _, stage := range []string{fault.StagePlace, fault.StageRoute, fault.StageExtract} {
		t.Run(stage, func(t *testing.T) {
			defer fault.Reset()
			fault.EnablePanic(stage, 0, "synthetic invariant violation")
			r, err := Run(spiralCfg(4, 0))
			if err == nil {
				t.Fatalf("stage %s: expected contained panic, got result %+v", stage, r)
			}
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("stage %s: error is not a *StageError: %v", stage, err)
			}
			if se.Stage != stage {
				t.Errorf("panic attribution: got %q, want %q", se.Stage, stage)
			}
			if !strings.Contains(err.Error(), "recovered panic") {
				t.Errorf("stage %s: error does not mention the recovered panic: %v", stage, err)
			}
		})
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, spiralCfg(4, 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the stage error, got %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("canceled run must still return a *StageError, got %v", err)
	}
}

func TestPromotionRetriesWithFewerWires(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected routing failure")
	// Ordinal 1 = the second route call, i.e. the first promotion (4
	// wires on the critical bit). The flow must retry with 3.
	fault.Enable(fault.StageRoute, 1, sentinel)
	r, err := Run(spiralCfg(6, 4))
	if err != nil {
		t.Fatalf("failed promotion must degrade, not fail: %v", err)
	}
	found := false
	for _, w := range r.Warnings {
		if strings.Contains(w, "retrying with 3 wires") {
			found = true
		}
	}
	if !found {
		t.Fatalf("retry not recorded in Warnings: %q", r.Warnings)
	}
	if r.Par[r.CriticalBit] != 3 {
		t.Errorf("critical bit C_%d has %d wires, want the degraded 3", r.CriticalBit, r.Par[r.CriticalBit])
	}
}

func TestPromotionKeepsLastGoodLayout(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected routing failure")
	// With MaxParallel=2 the promotion cannot retry lower; the flow must
	// keep the single-wire layout from the first pass.
	fault.Enable(fault.StageRoute, 1, sentinel)
	r, err := Run(spiralCfg(6, 2))
	if err != nil {
		t.Fatalf("failed minimal promotion must degrade, not fail: %v", err)
	}
	found := false
	for _, w := range r.Warnings {
		if strings.Contains(w, "keeping last-good layout") {
			found = true
		}
	}
	if !found {
		t.Fatalf("last-good fallback not recorded in Warnings: %q", r.Warnings)
	}
	for i, p := range r.Par {
		if p != 1 {
			t.Errorf("Par[%d] = %d, want the last-good single wire", i, p)
		}
	}
	if r.Layout == nil || r.Electrical == nil {
		t.Error("last-good layout and extraction missing from result")
	}
}

func TestBaseRouteFailureAborts(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected routing failure")
	// Ordinal 0 fails the very first route: there is no last-good
	// layout, so the flow must abort with the routing stage error.
	fault.Enable(fault.StageRoute, 0, sentinel)
	_, err := Run(spiralCfg(6, 2))
	if !errors.Is(err, sentinel) {
		t.Fatalf("base routing failure must abort with the cause, got %v", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != fault.StageRoute {
		t.Fatalf("want routing StageError, got %v", err)
	}
}

func TestBestBCSkipsFailingCandidate(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected routing failure")
	// Fail only the first candidate's base route; the sweep must return
	// the best of the remaining candidates and record the skip.
	fault.Enable(fault.StageRoute, 0, sentinel)
	cfg := Config{Bits: 6, ThetaSteps: 2}
	best, all, err := RunBestBC(cfg)
	if err != nil {
		t.Fatalf("one failing candidate must not fail the sweep: %v", err)
	}
	nParams := len(place.DefaultBCParams(6))
	if len(all) != nParams-1 {
		t.Errorf("got %d surviving candidates, want %d", len(all), nParams-1)
	}
	found := false
	for _, w := range best.Warnings {
		if strings.Contains(w, "skipped") {
			found = true
		}
	}
	if !found {
		t.Errorf("skipped candidate not recorded in best.Warnings: %q", best.Warnings)
	}
}

func TestBestBCNoFeasibleCandidates(t *testing.T) {
	// 2 bits admits no block-chessboard structure (CoreBits must be even
	// and in 2..bits-1): the sweep must error with a placement
	// StageError instead of returning an empty best.
	_, _, err := RunBestBC(Config{Bits: 2, ThetaSteps: 2})
	if err == nil {
		t.Fatal("sweep with no feasible candidates must error")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != fault.StagePlace {
		t.Fatalf("want placement StageError, got %v", err)
	}
}
