package yield

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/dacmodel"
	"ccdac/internal/obs"
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

// TestSpecSweepMatchesEstimate: a yield curve draws and evaluates its
// samples once, so each point equals EstimateContext at that spec,
// field for field, and the spectral sampler counts one draw of
// samples, not one per point. It runs the 8-bit spiral grid on the
// spectral sampler and on the exact one (FFTOff).
func TestSpecSweepMatchesEstimate(t *testing.T) {
	tch := tech.FinFET12()
	pos := variation.GridPositioner(tch)
	spiral, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	specs := []float64{0.001, 0.002, 0.005, 0.05}
	const samples, seed = 300, 5
	for _, c := range []struct {
		name string
		m    *ccmatrix.Matrix
		mode variation.FFTMode
		// spectral is the ccdac_numeric_fft_samples_total one curve adds.
		spectral int64
	}{
		{"8-spiral-grid", spiral, variation.FFTAuto, samples},
		{"8-spiral-grid-fftoff", spiral, variation.FFTOff, 0},
	} {
		tr := obs.New(obs.Options{})
		ctx := variation.WithFFTMode(obs.WithTrace(context.Background(), tr), c.mode)
		curve, err := SpecSweepContext(ctx, c.m, pos, tch, math.Pi/4, specs, dacmodel.Parasitics{}, samples, seed)
		tr.Finish()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tr.Registry().Snapshot().Counter("ccdac_numeric_fft_samples_total", nil); got != c.spectral {
			t.Errorf("%s: spectral samples = %d for %d points of %d samples, want %d",
				c.name, got, len(specs), samples, c.spectral)
		}
		for i, s := range specs {
			est, err := EstimateContext(variation.WithFFTMode(context.Background(), c.mode), c.m, pos, tch,
				math.Pi/4, Spec{MaxAbsDNL: s, MaxAbsINL: s}, dacmodel.Parasitics{}, samples, seed)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if *curve[i] != *est {
				t.Errorf("%s spec %g: curve %+v, EstimateContext %+v", c.name, s, *curve[i], *est)
			}
		}
		t.Logf("%s: yields %.3f %.3f %.3f %.3f", c.name,
			curve[0].Yield, curve[1].Yield, curve[2].Yield, curve[3].Yield)
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
