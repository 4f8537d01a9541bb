package dacmodel

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

func analysisFor(t *testing.T, bits int, style place.Style, theta float64) *variation.Analysis {
	t.Helper()
	var m *ccmatrix.Matrix
	var err error
	switch style {
	case place.Spiral:
		m, err = place.NewSpiral(bits)
	case place.Chessboard:
		m, err = place.NewChessboard(bits)
	default:
		m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	sh, err := variation.NewSharedContext(context.Background(), m, variation.GridPositioner(tch), tch)
	if err != nil {
		t.Fatal(err)
	}
	return sh.Analysis(theta)
}

func TestIdealOut(t *testing.T) {
	if got := IdealOut(6, 0); got != 0 {
		t.Errorf("IdealOut(6,0) = %g", got)
	}
	if got := IdealOut(6, 32); got != 0.5 {
		t.Errorf("IdealOut(6,32) = %g, want 0.5", got)
	}
	if got := IdealOut(6, 63); math.Abs(got-63.0/64) > 1e-15 {
		t.Errorf("IdealOut(6,63) = %g", got)
	}
}

func TestNonlinearitySmall(t *testing.T) {
	a := analysisFor(t, 6, place.Spiral, math.Pi/4)
	r, err := Nonlinearity(a, Parasitics{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxAbsDNL <= 0 || r.MaxAbsINL <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
	// The paper reports all methods below 0.5 LSB.
	if r.MaxAbsDNL > 0.5 || r.MaxAbsINL > 0.5 {
		t.Errorf("6-bit spiral INL/DNL too large: %+v", r)
	}
	if r.WorstINLCode <= 0 || r.WorstINLCode >= 64 {
		t.Errorf("worst INL code %d out of range", r.WorstINLCode)
	}
}

func TestNonlinearityRejectsBadVref(t *testing.T) {
	a := analysisFor(t, 6, place.Spiral, 0)
	if _, err := Nonlinearity(a, Parasitics{}, 0); err == nil {
		t.Error("zero vref must be rejected")
	}
}

func TestChessboardBeatsSpiralAtHighBits(t *testing.T) {
	// Table II shape (>= 8 bits): chessboard [7] has the best INL/DNL,
	// spiral the worst.
	sp := analysisFor(t, 8, place.Spiral, math.Pi/4)
	cb := analysisFor(t, 8, place.Chessboard, math.Pi/4)
	rs, err := Nonlinearity(sp, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Nonlinearity(cb, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.MaxAbsINL >= rs.MaxAbsINL {
		t.Errorf("chessboard INL %g not below spiral %g", rc.MaxAbsINL, rs.MaxAbsINL)
	}
}

func TestINLGrowsWithResolution(t *testing.T) {
	// In LSB units, mismatch-induced INL grows with N (LSB shrinks).
	lo := analysisFor(t, 6, place.Spiral, math.Pi/4)
	hi := analysisFor(t, 10, place.Spiral, math.Pi/4)
	rl, err := Nonlinearity(lo, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Nonlinearity(hi, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rh.MaxAbsINL <= rl.MaxAbsINL {
		t.Errorf("INL did not grow with resolution: 6-bit %g, 10-bit %g",
			rl.MaxAbsINL, rh.MaxAbsINL)
	}
}

func TestParasiticsWorsenINL(t *testing.T) {
	a := analysisFor(t, 8, place.Spiral, math.Pi/4)
	clean, err := Nonlinearity(a, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A large C^TS causes a visible gain error -> larger INL.
	dirty, err := Nonlinearity(a, Parasitics{CTSfF: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.MaxAbsINL <= clean.MaxAbsINL {
		t.Errorf("C_TS did not increase INL: clean %g, dirty %g",
			clean.MaxAbsINL, dirty.MaxAbsINL)
	}
}

func TestWorstOverTheta(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	as, err := variation.SweepThetaContext(context.Background(), m, variation.GridPositioner(tch), tch, 8)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := WorstOverTheta(as, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		r, err := Nonlinearity(a, Parasitics{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxAbsINL+r.MaxAbsDNL > worst.MaxAbsINL+worst.MaxAbsDNL+1e-12 {
			t.Errorf("sweep member exceeds reported worst")
		}
	}
	if _, err := WorstOverTheta(nil, Parasitics{}, 1); err == nil {
		t.Error("empty sweep must be rejected")
	}
}

func TestMonteCarloNLConsistentWith3Sigma(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	sh, err := variation.NewSharedContext(context.Background(), m, variation.GridPositioner(tch), tch)
	if err != nil {
		t.Fatal(err)
	}
	a := sh.Analysis(math.Pi / 4)
	shifts, err := sh.MonteCarloRangeContext(context.Background(), a, 0, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloNL(a, shifts, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Nonlinearity(a, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The 3σ model must upper-bound the MC median and be within reach
	// of the MC tail (same order of magnitude).
	med := Quantile(mc, 0.5, true)
	p99 := Quantile(mc, 0.99, true)
	if r3.MaxAbsINL < med {
		t.Errorf("3σ INL %g below MC median %g", r3.MaxAbsINL, med)
	}
	if r3.MaxAbsINL > 100*p99+1e-9 {
		t.Errorf("3σ INL %g wildly above MC p99 %g", r3.MaxAbsINL, p99)
	}
}

func TestMonteCarloNLRejectsBadShapes(t *testing.T) {
	a := analysisFor(t, 6, place.Spiral, 0)
	if _, err := MonteCarloNL(a, [][]float64{{1, 2}}, Parasitics{}, 1); err == nil {
		t.Error("wrong shift length must be rejected")
	}
	if _, err := MonteCarloNL(a, nil, Parasitics{}, 0); err == nil {
		t.Error("bad vref must be rejected")
	}
}

func TestQuantile(t *testing.T) {
	rs := []Result{{MaxAbsINL: 3}, {MaxAbsINL: 1}, {MaxAbsINL: 2}}
	if got := Quantile(rs, 0, true); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := Quantile(rs, 1, true); got != 3 {
		t.Errorf("q1 = %g, want 3", got)
	}
	if got := Quantile(rs, 0.5, true); got != 2 {
		t.Errorf("q0.5 = %g, want 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5, true)) {
		t.Error("empty quantile must be NaN")
	}
	// Unsorted DNL values with ties: sorted they read 0.5 0.5 1 2 2 2 4,
	// and the q-quantile is entry ⌊q·(n−1)⌋.
	var ties []Result
	for _, v := range []float64{2, 0.5, 4, 2, 1, 0.5, 2} {
		ties = append(ties, Result{MaxAbsDNL: v, MaxAbsINL: -v})
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0.5}, {0.2, 0.5}, {0.34, 1}, {0.5, 2}, {0.83, 2}, {0.9, 2}, {1, 4}, {-1, 0.5}, {2, 4},
	} {
		if got := Quantile(ties, c.q, false); got != c.want {
			t.Errorf("tied DNL q%g = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestMonotoneTransferNominal(t *testing.T) {
	// With tiny mismatch the perturbed transfer stays monotone
	// (DNL > -1): no missing codes for any placement style at 8 bits.
	for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
		a := analysisFor(t, 8, style, math.Pi/4)
		r, err := Nonlinearity(a, Parasitics{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxAbsDNL >= 1 {
			t.Errorf("%v: DNL %g implies a missing code", style, r.MaxAbsDNL)
		}
	}
}

func TestZeroMismatchZeroNL(t *testing.T) {
	// Property: with no mismatch samples (all-zero shifts) and no
	// parasitics, the Monte-Carlo evaluator reports zero INL/DNL for
	// any placement.
	for _, style := range []place.Style{place.Spiral, place.Chessboard} {
		a := analysisFor(t, 6, style, 0)
		shifts := [][]float64{make([]float64, 7)}
		rs, err := MonteCarloNL(a, shifts, Parasitics{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].MaxAbsINL > 1e-9 || rs[0].MaxAbsDNL > 1e-9 {
			t.Errorf("%v: zero mismatch gave INL %g DNL %g", style, rs[0].MaxAbsINL, rs[0].MaxAbsDNL)
		}
	}
}

func TestEndpointCorrectionRemovesGainError(t *testing.T) {
	// A pure C_TS gain error inflates raw INL but not endpoint INL.
	a := analysisFor(t, 8, place.Spiral, 0)
	shifts := [][]float64{make([]float64, 9)}
	par := Parasitics{CTSfF: 30}
	raw, err := MonteCarloNL(a, shifts, par, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := MonteCarloNLEndpoint(a, shifts, par, 1)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].MaxAbsINL < 1 {
		t.Errorf("raw INL %g: 30 fF gain error should exceed 1 LSB", raw[0].MaxAbsINL)
	}
	if corrected[0].MaxAbsINL > 0.01 {
		t.Errorf("endpoint INL %g: gain error not removed", corrected[0].MaxAbsINL)
	}
}
