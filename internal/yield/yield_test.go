package yield

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/dacmodel"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

func TestYieldExtremes(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	pos := variation.GridPositioner(tch)

	// Generous spec: everything passes.
	loose, err := EstimateContext(context.Background(), m, pos, tch, math.Pi/4,
		Spec{MaxAbsDNL: 2, MaxAbsINL: 2}, dacmodel.Parasitics{}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Yield != 1 {
		t.Errorf("loose spec yield = %g, want 1", loose.Yield)
	}
	// Impossible spec: nothing passes.
	tight, err := EstimateContext(context.Background(), m, pos, tch, math.Pi/4,
		Spec{MaxAbsDNL: 1e-9, MaxAbsINL: 1e-9}, dacmodel.Parasitics{}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Yield != 0 {
		t.Errorf("impossible spec yield = %g, want 0", tight.Yield)
	}
	if tight.WorstINL <= 0 || tight.WorstDNL <= 0 {
		t.Error("worst-sample stats missing")
	}
}

func TestYieldConfidenceInterval(t *testing.T) {
	lo, hi := wilson(50, 100, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("CI [%g, %g] does not contain the point estimate", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%g, %g] too wide for n=100", lo, hi)
	}
	// Degenerate cases stay in [0, 1].
	if lo, hi := wilson(0, 10, 1.96); lo < 0 || hi > 1 || hi < 0.05 {
		t.Errorf("zero-pass CI [%g, %g]", lo, hi)
	}
	if lo, hi := wilson(10, 10, 1.96); lo > 0.95 || hi != 1 {
		t.Errorf("all-pass CI [%g, %g]", lo, hi)
	}
	if lo, hi := wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("empty CI [%g, %g]", lo, hi)
	}
}

func TestYieldMonotoneInSpec(t *testing.T) {
	m, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	pos := variation.GridPositioner(tch)
	curve, err := SpecSweepContext(context.Background(), m, pos, tch, math.Pi/4,
		[]float64{0.002, 0.01, 0.05, 0.5}, dacmodel.Parasitics{}, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Yield < curve[i-1].Yield {
			t.Errorf("yield not monotone in spec: %g then %g",
				curve[i-1].Yield, curve[i].Yield)
		}
	}
	if curve[len(curve)-1].Yield != 1 {
		t.Errorf("0.5 LSB spec yield = %g, want 1 at 8 bits", curve[len(curve)-1].Yield)
	}
}

func TestDispersionImprovesYield(t *testing.T) {
	// The point of [5]: at a tight spec, the high-dispersion chessboard
	// yields at least as well as the spiral.
	tch := tech.FinFET12()
	pos := variation.GridPositioner(tch)
	sp, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := place.NewChessboard(8)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a spec near the spiral's typical DNL so the two differ.
	spec := Spec{MaxAbsDNL: 0.004, MaxAbsINL: 0.02}
	const n = 120
	ySp, err := EstimateContext(context.Background(), sp, pos, tch, math.Pi/4, spec, dacmodel.Parasitics{}, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	yCb, err := EstimateContext(context.Background(), cb, pos, tch, math.Pi/4, spec, dacmodel.Parasitics{}, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if yCb.Yield < ySp.Yield {
		t.Errorf("chessboard yield %g below spiral %g at tight spec", yCb.Yield, ySp.Yield)
	}
}

func TestEstimateRejectsBadInputs(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	pos := variation.GridPositioner(tch)
	if _, err := EstimateContext(context.Background(), m, pos, tch, 0, Spec{}, dacmodel.Parasitics{}, 10, 1); err == nil {
		t.Error("zero spec must be rejected")
	}
	if _, err := EstimateContext(context.Background(), m, pos, tch, 0, Spec{MaxAbsDNL: 1, MaxAbsINL: 1}, dacmodel.Parasitics{}, 0, 1); err == nil {
		t.Error("zero samples must be rejected")
	}
}
