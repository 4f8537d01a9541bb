package numeric

import (
	"fmt"
	"math"
	"math/rand"

	"ccdac/internal/fftk"
	"ccdac/internal/linalg"
	"ccdac/internal/tech"
)

// DefaultChecks returns the stock golden-reference probes covering the
// kernels the analysis pipeline leans on: the sparse CG solver, dense
// Cholesky, dense LU, the rho evaluator, and the FFT
// structured-covariance kernels (transform round trip, the
// row-spectral quadratic forms against the direct sum, spectral-sampler
// covariance). Each problem has an analytically known answer, so
// drift measures the kernel itself, not a reference implementation.
// Check names are stable metric labels: a check re-pointed at a new
// kernel keeps its name.
func DefaultChecks() []Check {
	return []Check{
		{Name: "cg_solve", Run: checkCG},
		{Name: "chol_reconstruction", Run: checkChol},
		{Name: "lu_solve", Run: checkLU},
		{Name: "rho_memo", Run: checkRhoMemo},
		{Name: "fft_roundtrip", Run: checkFFTRoundTrip},
		{Name: "circulant_matvec", Run: checkCirculantMatvec},
		// The sampler check is statistical: a fixed seed makes the
		// drift deterministic, but its magnitude is Monte-Carlo noise
		// (~1/√samples), not round-off, hence the dedicated tolerance.
		{Name: "embed_sample_cov", Tol: 0.2, Run: checkEmbedSampleCov},
	}
}

// checkCG solves a shifted 1-D Laplacian (the sparse SPD shape the RC
// extraction produces) against the known solution x* = 1: the rhs is
// built as b = A·1, so any drift is solver error, and a CG run at the
// extraction's own 1e-12 tolerance must land well under DefaultTol.
func checkCG() (float64, error) {
	const n = 32
	s := linalg.NewSparse(n)
	for i := 0; i < n; i++ {
		s.Add(i, i, 2.5)
		if i+1 < n {
			s.AddSym(i, i+1, -1)
		}
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	s.MulVec(ones, b)
	x, err := s.SolveCG(b, 1e-12, 0)
	if err != nil {
		return math.Inf(1), fmt.Errorf("cg golden solve: %w", err)
	}
	return relErr(x, ones), nil
}

// checkChol factors A = M·Mᵀ + I for a fixed M and measures the
// reconstruction error max|A − L·Lᵀ| / max|A|.
func checkChol() (float64, error) {
	const n = 16
	a := linalg.NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Gram matrix of the rows of a fixed full-rank M, plus I:
			// symmetric positive definite by construction.
			sum := 0.0
			for k := 0; k < n; k++ {
				mi := float64((i*7+k*3)%11) + 1
				mj := float64((j*7+k*3)%11) + 1
				sum += mi * mj
			}
			a.Set(i, j, sum)
		}
		a.Add(i, i, float64(n))
	}
	l, err := linalg.Cholesky(a)
	if err != nil {
		return math.Inf(1), fmt.Errorf("chol golden factor: %w", err)
	}
	maxA, maxDiff := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rec := 0.0
			for k := 0; k <= min(i, j); k++ {
				rec += l.At(i, k) * l.At(j, k)
			}
			if v := math.Abs(a.At(i, j)); v > maxA {
				maxA = v
			}
			if d := math.Abs(a.At(i, j) - rec); d > maxDiff {
				maxDiff = d
			}
		}
	}
	return maxDiff / maxA, nil
}

// checkLU solves a well-conditioned fixed system against x* = (1..n).
func checkLU() (float64, error) {
	const n = 12
	a := linalg.NewDense(n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = float64(i + 1)
		for j := 0; j < n; j++ {
			if i == j {
				a.Set(i, j, float64(n))
			} else {
				a.Set(i, j, 1/float64(1+((i*5+j*3)%7)))
			}
		}
	}
	b := a.MulVec(want)
	f, err := linalg.LUFactor(a)
	if err != nil {
		return math.Inf(1), fmt.Errorf("lu golden factor: %w", err)
	}
	x, err := f.Solve(b)
	if err != nil {
		return math.Inf(1), fmt.Errorf("lu golden solve: %w", err)
	}
	return relErr(x, want), nil
}

// checkRhoMemo compares the quantized rho evaluator every covariance
// engine reads, tech.RhoTable.RhoSq, against the closed form
// ρ_u^(d/L_c).
func checkRhoMemo() (float64, error) {
	t := tech.FinFET12()
	rt := t.RhoTable()
	worst := 0.0
	for _, d := range []float64{0, 0.35, 1.7, 12.5, 140, 977} {
		got := rt.RhoSq(d * d)
		want := math.Pow(t.Mis.RhoU, d/t.Mis.LcUm)
		if want == 0 {
			continue
		}
		if e := math.Abs(got-want) / want; e > worst {
			worst = e
		}
	}
	return worst, nil
}

// checkFFTRoundTrip pushes a fixed impulse-plus-tone vector through
// Forward then Inverse on a pow2 and a Bluestein length: the exact
// answer is the input itself, so any drift is transform error.
func checkFFTRoundTrip() (float64, error) {
	worst := 0.0
	for _, n := range []int{32, 24} {
		p, err := fftk.NewPlan(n)
		if err != nil {
			return math.Inf(1), fmt.Errorf("fft golden plan(%d): %w", n, err)
		}
		x := make([]complex128, n)
		want := make([]float64, 2*n)
		for i := range x {
			re := math.Cos(2*math.Pi*3*float64(i)/float64(n)) + float64(i%5)
			im := math.Sin(2 * math.Pi * float64(i) / float64(n))
			x[i] = complex(re, im)
			want[2*i], want[2*i+1] = re, im
		}
		p.Forward(x)
		p.Inverse(x)
		got := make([]float64, 2*n)
		for i, v := range x {
			got[2*i], got[2*i+1] = real(v), imag(v)
		}
		if e := relErr(got, want); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// checkCirculantMatvec compares the row-spectral quadratic forms
// 1_jᵀ C 1_k of the stock mismatch kernel against the direct O(n²)
// pair sum on a 4×6 lattice, once with uniform and once with
// non-uniform column positions, over three interleaved classes that
// leave two sites empty — the identity the structured analysis path
// rests on.
func checkCirculantMatvec() (float64, error) {
	t := tech.FinFET12()
	sigmaU2 := t.SigmaU() * t.SigmaU()
	kernel := func(d2 float64) float64 {
		return sigmaU2 * math.Pow(t.Mis.RhoU, math.Sqrt(d2)/t.Mis.LcUm)
	}
	const rows, cols = 4, 6
	classes := make([][]int, 3)
	for i := 0; i < rows*cols-2; i++ {
		classes[(i*7)%3] = append(classes[(i*7)%3], i)
	}
	worst := 0.0
	for _, colX := range [][]float64{
		{0, 1, 2, 3, 4, 5},
		{0, 1.3, 2.9, 3.6, 5.8, 6.5},
	} {
		g := fftk.SemiGrid{Rows: rows, DY: t.Unit.H, ColX: make([]float64, cols)}
		for c, x := range colX {
			g.ColX[c] = x * t.Unit.W
		}
		e, err := fftk.NewSemiEmbedding(g, kernel, 1)
		if err != nil {
			return math.Inf(1), fmt.Errorf("fft golden embedding: %w", err)
		}
		forms := e.QuadForms(classes, 1)
		var got, want []float64
		for j, cj := range classes {
			for k, ck := range classes {
				s := 0.0
				for _, a := range cj {
					for _, b := range ck {
						dx := g.ColX[a%cols] - g.ColX[b%cols]
						dy := float64(a/cols-b/cols) * g.DY
						s += kernel(dx*dx + dy*dy)
					}
				}
				got, want = append(got, forms[j][k]), append(want, s)
			}
		}
		if e := relErr(got, want); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// checkEmbedSampleCov draws a fixed-seed batch of spectral samples on
// a 4×4 grid and measures the worst covariance-entry error against
// the kernel, normalized by the variance. The drift is deterministic
// (fixed stream) but statistically sized; its tolerance lives on the
// check, not DefaultTol.
func checkEmbedSampleCov() (float64, error) {
	t := tech.FinFET12()
	sigmaU2 := t.SigmaU() * t.SigmaU()
	kernel := func(d2 float64) float64 {
		return sigmaU2 * math.Pow(t.Mis.RhoU, math.Sqrt(d2)/t.Mis.LcUm)
	}
	g := fftk.Grid{Rows: 4, Cols: 4, DX: t.Unit.W, DY: t.Unit.H}
	e, err := fftk.NewEmbedding(g, kernel)
	if err != nil {
		return math.Inf(1), fmt.Errorf("fft golden sampler embedding: %w", err)
	}
	if !e.CanSample() {
		return math.Inf(1), fmt.Errorf("fft golden sampler: embedding not sampleable (rel err %g)", e.SampleRelErr)
	}
	const samples = 512
	n := g.Rows * g.Cols
	rng := rand.New(rand.NewSource(42))
	field := make([]float64, n)
	acc := make([]float64, n*n)
	for s := 0; s < samples; s++ {
		e.Sample(field, rng)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				acc[i*n+j] += field[i] * field[j]
			}
		}
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		ri, ci := i/g.Cols, i%g.Cols
		for j := i; j < n; j++ {
			rj, cj := j/g.Cols, j%g.Cols
			dx := float64(ci-cj) * g.DX
			dy := float64(ri-rj) * g.DY
			want := kernel(dx*dx + dy*dy)
			if e := math.Abs(acc[i*n+j]/samples-want) / sigmaU2; e > worst {
				worst = e
			}
		}
	}
	return worst, nil
}

// relErr is ‖x − want‖₂ / ‖want‖₂.
func relErr(x, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range want {
		d := x[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
