package fftk

import (
	"math"
	"math/rand"
	"testing"

	"ccdac/internal/tech"
)

// semiKernel is a smooth positive-definite-ish test kernel.
func semiKernel(d2 float64) float64 { return math.Exp(-d2 / 2.3) }

// semiDense materializes the n×n covariance the embedding represents.
func semiDense(g SemiGrid, k func(float64) float64) [][]float64 {
	C := len(g.ColX)
	n := g.Rows * C
	m := make([][]float64, n)
	for a := 0; a < n; a++ {
		m[a] = make([]float64, n)
		ra, ca := a/C, a%C
		for b := 0; b < n; b++ {
			rb, cb := b/C, b%C
			dx := g.ColX[ca] - g.ColX[cb]
			dy := float64(ra-rb) * g.DY
			m[a][b] = k(dx*dx + dy*dy)
		}
	}
	return m
}

func semiTestGrid() SemiGrid {
	// Irregular columns: the routed-layout shape the embedding exists
	// for.
	return SemiGrid{Rows: 7, DY: 1.1, ColX: []float64{0, 1.3, 2.4, 4.1, 5.0}}
}

// TestSemiQuadFormsMatchDense checks the quadratic forms against the
// direct pair sum over the materialized covariance: the short Gaussian
// on an irregular lattice with four random classes, and the FinFET12
// mismatch kernel σᵤ²·ρᵤ^(d/L_c), near rank one at cell pitch as the
// DAC reads it, on a 4×6 lattice of unit cells with uniform and with
// non-uniform columns, three interleaved classes and two empty sites.
func TestSemiQuadFormsMatchDense(t *testing.T) {
	type tc struct {
		name    string
		g       SemiGrid
		kernel  func(float64) float64
		classes [][]int
		floor   float64 // absolute error allowance beside 1e-10 relative
	}
	g := semiTestGrid()
	rng := rand.New(rand.NewSource(11))
	random := make([][]int, 4)
	for idx := 0; idx < g.Rows*len(g.ColX); idx++ {
		j := rng.Intn(len(random))
		random[j] = append(random[j], idx)
	}
	cases := []tc{{"gaussian", g, semiKernel, random, 1e-12}}

	tch := tech.FinFET12()
	sigmaU2 := tch.SigmaU() * tch.SigmaU()
	finfet := func(d2 float64) float64 {
		return sigmaU2 * math.Pow(tch.Mis.RhoU, math.Sqrt(d2)/tch.Mis.LcUm)
	}
	const rows, cols = 4, 6
	interleaved := make([][]int, 3)
	for i := 0; i < rows*cols-2; i++ {
		interleaved[(i*7)%3] = append(interleaved[(i*7)%3], i)
	}
	for _, colX := range [][]float64{
		{0, 1, 2, 3, 4, 5},
		{0, 1.3, 2.9, 3.6, 5.8, 6.5},
	} {
		fg := SemiGrid{Rows: rows, DY: tch.Unit.H, ColX: make([]float64, cols)}
		for c, x := range colX {
			fg.ColX[c] = x * tch.Unit.W
		}
		cases = append(cases, tc{"finfet12", fg, finfet, interleaved, 0})
	}

	for _, c := range cases {
		e, err := NewSemiEmbedding(c.g, c.kernel, math.Float64bits, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := e.QuadForms(c.classes, 1)
		dense := semiDense(c.g, c.kernel)
		for j := range c.classes {
			for k := range c.classes {
				want := 0.0
				for _, a := range c.classes[j] {
					for _, b := range c.classes[k] {
						want += dense[a][b]
					}
				}
				if e := math.Abs(got[j][k] - want); e > 1e-10*math.Abs(want)+c.floor {
					t.Errorf("%s cols %v: G[%d][%d] = %.15g, dense %.15g (err %g)",
						c.name, c.g.ColX, j, k, got[j][k], want, e)
				}
			}
		}
	}
}

// TestSemiQuadFormsSingleRow covers the degenerate R=1 torus (M=1):
// the quadratic forms collapse to plain column sums of the kernel.
func TestSemiQuadFormsSingleRow(t *testing.T) {
	g := SemiGrid{Rows: 1, DY: 0, ColX: []float64{0, 0.9, 2.1}}
	e, err := NewSemiEmbedding(g, semiKernel, math.Float64bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := e.QuadForms([][]int{{0, 2}, {1}}, 1)
	dense := semiDense(g, semiKernel)
	want00 := dense[0][0] + dense[0][2] + dense[2][0] + dense[2][2]
	want01 := dense[0][1] + dense[2][1]
	if math.Abs(got[0][0]-want00) > 1e-12 || math.Abs(got[0][1]-want01) > 1e-12 {
		t.Errorf("G = %v, want [[%g %g] ...]", got, want00, want01)
	}
}

func TestSemiSampleCovariance(t *testing.T) {
	g := SemiGrid{Rows: 4, DY: 1.1, ColX: []float64{0, 1.3, 2.9}}
	e, err := NewSemiEmbedding(g, semiKernel, math.Float64bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.CanSample() {
		t.Fatalf("CanSample = false (SampleRelErr %g) for a smooth kernel", e.SampleRelErr)
	}
	n := g.Rows * len(g.ColX)
	const samples = 60000
	rng := rand.New(rand.NewSource(5))
	acc := make([]float64, n*n)
	field := make([]float64, n)
	for s := 0; s < samples; s++ {
		e.Sample(field, rng)
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				acc[a*n+b] += field[a] * field[b]
			}
		}
	}
	dense := semiDense(g, semiKernel)
	worst := 0.0
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			got := acc[a*n+b] / samples
			if e := math.Abs(got - dense[a][b]); e > worst {
				worst = e
			}
		}
	}
	// MC noise at 60k samples is ~1/sqrt(60000) ≈ 0.4% of the unit
	// variance; 0.05 is a wide deterministic margin.
	if worst > 0.05 {
		t.Errorf("sample covariance drift = %g, want <= 0.05", worst)
	}
	t.Logf("sample covariance drift = %.3g over %d samples", worst, samples)
}

// TestSemiLongRangeKernelSamples pins the exact-error gate on the
// regime the mismatch kernel lives in: correlation length far beyond
// the array, where the min-wrap kink makes a band of cross-spectral
// matrices indefinite. The nuclear-mass bound (the 2-D embedding's
// gate) rejects such kernels by ~4e-2; the exact lag-domain error is
// orders of magnitude smaller because the clamped contributions
// cancel at in-lattice lags.
func TestSemiLongRangeKernelSamples(t *testing.T) {
	longKernel := func(d2 float64) float64 { return math.Exp(-math.Sqrt(d2) / 200) }
	g := SemiGrid{Rows: 32, DY: 1, ColX: []float64{0, 1.7, 3.1, 4.9, 7.2, 8.8}}
	e, err := NewSemiEmbedding(g, longKernel, math.Float64bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.CanSample() {
		t.Fatalf("CanSample = false (SampleRelErr %g)", e.SampleRelErr)
	}
	if e.SampleRelErr == 0 {
		t.Fatal("SampleRelErr = 0: no spectrum was clamped, test exercises nothing")
	}
	t.Logf("SampleRelErr = %.3g", e.SampleRelErr)
	// The draws must still carry the target covariance: compare a few
	// entries against the dense kernel via sample moments.
	n := g.Rows * len(g.ColX)
	rng := rand.New(rand.NewSource(9))
	field := make([]float64, n)
	const samples = 20000
	pairs := [][2]int{{0, 0}, {0, 5}, {0, n - 1}, {17, 100}}
	acc := make([]float64, len(pairs))
	for s := 0; s < samples; s++ {
		e.Sample(field, rng)
		for i, p := range pairs {
			acc[i] += field[p[0]] * field[p[1]]
		}
	}
	dense := semiDense(g, longKernel)
	for i, p := range pairs {
		got := acc[i] / samples
		want := dense[p[0]][p[1]]
		if math.Abs(got-want) > 0.05 {
			t.Errorf("cov[%d][%d] = %g, want %g", p[0], p[1], got, want)
		}
	}
}

// TestSemiFactorPSD pins the two factorization routes: Cholesky on a
// definite matrix (reported lower triangular), eigen-clamp (with the
// clamped part reported) on an indefinite one.
func TestSemiFactorPSD(t *testing.T) {
	// Definite: diag(2, 3) plus small coupling.
	s := []float64{2, 0.5, 0.5, 3}
	f, lower, nf := factorPSD(append([]float64(nil), s...), 2, 1)
	if nf != nil {
		t.Errorf("definite matrix clamped part %v, want nil", nf)
	}
	if !lower || f[1] != 0 {
		t.Errorf("definite matrix factor %v lower=%v, want lower triangular", f, lower)
	}
	checkFactor(t, f, s, 2)

	// Indefinite: eigenvalues 3 and −1, eigenvector of −1 is
	// [1,−1]/√2, so the clamped part is [[0.5,−0.5],[−0.5,0.5]].
	s = []float64{1, 2, 2, 1}
	f, lower, nf = factorPSD(append([]float64(nil), s...), 2, 1)
	if lower {
		t.Error("eigen-clamp factor reported lower triangular")
	}
	wantN := []float64{0.5, -0.5, 0.5} // packed symmetric
	if nf == nil {
		t.Fatal("indefinite matrix clamped part nil")
	}
	for i, w := range wantN {
		if math.Abs(nf[i]-w) > 1e-12 {
			t.Errorf("clamped part[%d] = %g, want %g", i, nf[i], w)
		}
	}
	// F·Fᵀ must equal the clamped matrix: eigenvalue −1 → 0, so
	// clamp(s) = 1.5·[[1,1],[1,1]].
	want := []float64{1.5, 1.5, 1.5, 1.5}
	checkFactor(t, f, want, 2)
}

func checkFactor(t *testing.T, f, want []float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := 0.0
			for k := 0; k < n; k++ {
				got += f[i*n+k] * f[j*n+k]
			}
			if math.Abs(got-want[i*n+j]) > 1e-10 {
				t.Errorf("F·Fᵀ[%d][%d] = %g, want %g", i, j, got, want[i*n+j])
			}
		}
	}
}

func TestJacobiEig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 8
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	vals, vecs := jacobiEig(append([]float64(nil), a...), n)
	// A·v_j = μ_j·v_j for every column.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			av := 0.0
			for k := 0; k < n; k++ {
				av += a[i*n+k] * vecs[k*n+j]
			}
			if math.Abs(av-vals[j]*vecs[i*n+j]) > 1e-9 {
				t.Fatalf("eigenpair %d: (A·v)[%d] = %g, μ·v = %g", j, i, av, vals[j]*vecs[i*n+j])
			}
		}
	}
}
