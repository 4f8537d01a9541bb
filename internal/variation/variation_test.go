package variation

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/linalg"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// analyze builds a Shared prefix under ctx and evaluates it at one
// gradient angle.
func analyze(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, theta float64) (*Analysis, error) {
	sh, err := NewSharedContext(ctx, m, pos, t)
	if err != nil {
		return nil, err
	}
	return sh.Analysis(theta), nil
}

func analyzeStyle(t *testing.T, bits int, style place.Style, theta float64) (*Shared, *Analysis) {
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
	sh, err := NewSharedContext(context.Background(), m, GridPositioner(tch), tch)
	if err != nil {
		t.Fatal(err)
	}
	return sh, sh.Analysis(theta)
}

func TestCStarNearNominal(t *testing.T) {
	// With a 10 ppm/um gradient over a ~14 um array, shifts are tiny.
	_, a := analyzeStyle(t, 6, place.Spiral, math.Pi/4)
	counts := ccmatrix.UnitCounts(6)
	for k := 0; k <= 6; k++ {
		nominal := float64(counts[k]) * a.CuFF
		if rel := math.Abs(a.CStar[k]-nominal) / nominal; rel > 1e-3 {
			t.Errorf("C_%d* off nominal by %g (too large)", k, rel)
		}
		if a.CStar[k] <= 0 {
			t.Errorf("C_%d* non-positive", k)
		}
	}
}

func TestSymmetricPlacementCancelsGradient(t *testing.T) {
	// Exact common-centroid pairs cancel the linear gradient to first
	// order: DCsys of paired capacitors must be second-order small.
	_, a := analyzeStyle(t, 6, place.Spiral, math.Pi/3)
	for k := 2; k <= 6; k++ {
		rel := math.Abs(a.DCSys(k)) / a.CStar[k]
		// First-order term would be ~gamma*span ~ 1e-4; the paired
		// cancellation must leave only ~(gamma*span)^2 ~ 1e-8.
		if rel > 1e-6 {
			t.Errorf("C_%d systematic shift %g not cancelled by symmetry", k, rel)
		}
	}
}

func TestGradientAngleDependence(t *testing.T) {
	// C_0 and C_1 sit diagonally opposite: their shifts move oppositely
	// and depend on the angle.
	_, a0 := analyzeStyle(t, 6, place.Spiral, 0)
	if math.Signbit(a0.DCSys(0)) == math.Signbit(a0.DCSys(1)) && a0.DCSys(0) != 0 {
		t.Errorf("C_0 and C_1 gradient shifts have the same sign: %g, %g",
			a0.DCSys(0), a0.DCSys(1))
	}
}

func TestCovarianceSymmetricPSDish(t *testing.T) {
	_, a := analyzeStyle(t, 6, place.Chessboard, 0)
	n := a.Bits + 1
	for j := 0; j < n; j++ {
		if a.Cov.At(j, j) <= 0 {
			t.Errorf("Var(C_%d) = %g not positive", j, a.Cov.At(j, j))
		}
		for k := 0; k < n; k++ {
			if a.Cov.At(j, k) != a.Cov.At(k, j) {
				t.Errorf("Cov not symmetric at (%d,%d)", j, k)
			}
			// Cauchy-Schwarz.
			if c := a.Cov.At(j, k); c*c > a.Cov.At(j, j)*a.Cov.At(k, k)*(1+1e-9) {
				t.Errorf("Cov(%d,%d) violates Cauchy-Schwarz", j, k)
			}
		}
	}
	// The full matrix should admit a Cholesky factorization (PSD) after
	// negligible regularization.
	reg := a.Cov.Clone()
	for i := 0; i < n; i++ {
		reg.Add(i, i, 1e-12)
	}
	if _, err := linalg.Cholesky(reg); err != nil {
		t.Errorf("capacitor covariance not PSD: %v", err)
	}
}

func TestVarianceMatchesEq6(t *testing.T) {
	// For C_k with n cells, Var = sigma_u^2 (n + 2 S_p); with rho ~ 1
	// (Lc = 1mm >> array), Var ~ sigma_u^2 n^2.
	_, a := analyzeStyle(t, 6, place.Spiral, 0)
	tch := tech.FinFET12()
	s2 := tch.SigmaU() * tch.SigmaU()
	for k := 2; k <= 6; k++ {
		n := float64(a.Counts[k])
		v := a.Cov.At(k, k)
		if v < s2*n || v > s2*n*n*1.0001 {
			t.Errorf("Var(C_%d) = %g outside [n, n^2] sigma_u^2 bounds", k, v)
		}
		// Near-full correlation at this scale.
		if v < 0.95*s2*n*n {
			t.Errorf("Var(C_%d) = %g; expected near n^2 sigma_u^2 = %g at Lc=1mm", k, v, s2*n*n)
		}
	}
}

func TestDispersionLowersRatioVariance(t *testing.T) {
	// The matching figure of merit: variance of the C_k/C_T ratio error
	// proxy sigma^2(C_j) n_k^2 + sigma^2(C_k) n_j^2 - 2 n_j n_k Cov —
	// chessboard (high dispersion) must beat spiral for the MSB pair.
	_, sp := analyzeStyle(t, 8, place.Spiral, 0)
	_, cb := analyzeStyle(t, 8, place.Chessboard, 0)
	mismatch := func(a *Analysis, j, k int) float64 {
		nj, nk := float64(a.Counts[j]), float64(a.Counts[k])
		return a.Cov.At(j, j)/(nj*nj) + a.Cov.At(k, k)/(nk*nk) - 2*a.Cov.At(j, k)/(nj*nk)
	}
	if mismatch(cb, 8, 7) >= mismatch(sp, 8, 7) {
		t.Errorf("chessboard MSB mismatch %g not below spiral %g",
			mismatch(cb, 8, 7), mismatch(sp, 8, 7))
	}
}

func TestSigmaOnSubsetOfSigmaT(t *testing.T) {
	_, a := analyzeStyle(t, 6, place.Spiral, 0)
	d := make([]bool, 7)
	for k := 1; k <= 6; k++ {
		d[k] = true
	}
	allOn := a.SigmaOn(d)
	if allOn <= 0 {
		t.Fatal("sigma_ON must be positive with bits on")
	}
	if a.SigmaT() < allOn {
		t.Errorf("sigma_T %g below sigma_ON(all) %g", a.SigmaT(), allOn)
	}
	// No bits on: zero.
	if got := a.SigmaOn(make([]bool, 7)); got != 0 {
		t.Errorf("sigma_ON with no bits = %g, want 0", got)
	}
	// Monotone: adding a bit cannot reduce sigma (all covariances > 0).
	d5 := make([]bool, 7)
	d5[5] = true
	d56 := make([]bool, 7)
	d56[5], d56[6] = true, true
	if a.SigmaOn(d56) <= a.SigmaOn(d5) {
		t.Error("sigma_ON must grow with more bits on")
	}
}

func TestSweepThetaSharesCovariance(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	as, err := SweepThetaContext(context.Background(), m, GridPositioner(tch), tch, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 6 {
		t.Fatalf("sweep returned %d analyses", len(as))
	}
	for i, a := range as {
		if a.Cov != as[0].Cov {
			t.Errorf("analysis %d does not share the covariance matrix", i)
		}
		want := math.Pi * float64(i) / 6
		if math.Abs(a.ThetaRad-want) > 1e-12 {
			t.Errorf("analysis %d theta = %g, want %g", i, a.ThetaRad, want)
		}
	}
	if _, err := SweepThetaContext(context.Background(), m, GridPositioner(tch), tch, 0); err == nil {
		t.Error("zero-step sweep must be rejected")
	}
}

func TestMonteCarloMatches3SigmaScale(t *testing.T) {
	sh, a := analyzeStyle(t, 6, place.Spiral, 0)
	samples, err := sh.MonteCarloRangeContext(context.Background(), a, 0, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Empirical std of DeltaC_6 vs closed-form sqrt(Cov[6][6]).
	var sum, sum2 float64
	for _, s := range samples {
		sum += s[6]
		sum2 += s[6] * s[6]
	}
	n := float64(len(samples))
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	want := math.Sqrt(a.Cov.At(6, 6))
	if math.Abs(std-want)/want > 0.25 {
		t.Errorf("MC std %g vs analytic %g (off > 25%%)", std, want)
	}
	// Mean tracks the systematic shift (near zero for symmetric spiral).
	if math.Abs(mean-a.DCSys(6)) > 4*want/math.Sqrt(n) {
		t.Errorf("MC mean %g vs systematic %g", mean, a.DCSys(6))
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	sh1, a1 := analyzeStyle(t, 6, place.Spiral, 0)
	sh2, a2 := analyzeStyle(t, 6, place.Spiral, 0)
	s1, err := sh1.MonteCarloRangeContext(context.Background(), a1, 0, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sh2.MonteCarloRangeContext(context.Background(), a2, 0, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		for k := range s1[i] {
			if s1[i][k] != s2[i][k] {
				t.Fatal("Monte Carlo must be reproducible per seed")
			}
		}
	}
}

func TestAnalyzeRejectsBadInputs(t *testing.T) {
	tch := tech.FinFET12()
	empty := ccmatrix.New(4, 4, 4, 1)
	if _, err := NewSharedContext(context.Background(), empty, GridPositioner(tch), tch); err == nil {
		t.Error("incomplete placement must be rejected")
	}
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	bad := tech.FinFET12()
	bad.Mis.RhoU = 2
	if _, err := NewSharedContext(context.Background(), m, GridPositioner(tch), bad); err == nil {
		t.Error("invalid technology must be rejected")
	}
}

func TestQuadraticGradientBreaksSpiralNotChessboard(t *testing.T) {
	// Point reflection cancels any linear gradient, but the spiral's
	// ring structure cannot cancel a radial r^2 (bowl) term: the MSB
	// ring sits at a systematically different radius than the LSBs.
	// The chessboard spreads every capacitor over all radii, so the
	// bowl cancels in the ratios.
	tt := tech.FinFET12()
	tt.Mis.GradientPPMPerUm = 0
	tt.Mis.QuadGradientPPMPerUm2 = 5
	pos := GridPositioner(tt)

	sp, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := place.NewChessboard(8)
	if err != nil {
		t.Fatal(err)
	}
	aSp, err := analyze(context.Background(), sp, pos, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	aCb, err := analyze(context.Background(), cb, pos, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Relative systematic ratio error of the MSB vs the total.
	ratioErr := func(a *Analysis) float64 {
		n := a.Bits
		cT, cTStar := 0.0, 0.0
		for k := 0; k <= n; k++ {
			cT += float64(a.Counts[k]) * a.CuFF
			cTStar += a.CStar[k]
		}
		nom := float64(a.Counts[n]) * a.CuFF / cT
		return math.Abs(a.CStar[n]/cTStar-nom) / nom
	}
	if ratioErr(aSp) < 5*ratioErr(aCb) {
		t.Errorf("spiral bowl-gradient ratio error %g not well above chessboard %g",
			ratioErr(aSp), ratioErr(aCb))
	}
}

func TestQuadraticGradientZeroByDefault(t *testing.T) {
	// The paper's model is linear: the default technology carries no
	// quadratic term, and the spiral's shifts stay ppm-level.
	tt := tech.FinFET12()
	if tt.Mis.QuadGradientPPMPerUm2 != 0 {
		t.Fatal("default technology must have no quadratic gradient")
	}
}
