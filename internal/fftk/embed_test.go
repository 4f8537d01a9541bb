package fftk

import (
	"math"
	"math/rand"
	"testing"
)

// expKernel is the flow's mismatch correlation shape: sigma² ρ^(d/Lc).
func expKernel(sigma2, rho, lc float64) func(float64) float64 {
	return func(d2 float64) float64 {
		return sigma2 * math.Pow(rho, math.Sqrt(d2)/lc)
	}
}

// denseCov materializes the grid covariance the embedding represents.
func denseCov(g Grid, kernel func(float64) float64) [][]float64 {
	n := g.Rows * g.Cols
	cov := make([][]float64, n)
	for a := 0; a < n; a++ {
		cov[a] = make([]float64, n)
		ra, ca := a/g.Cols, a%g.Cols
		for b := 0; b < n; b++ {
			rb, cb := b/g.Cols, b%g.Cols
			dx := float64(ca-cb) * g.DX
			dy := float64(ra-rb) * g.DY
			cov[a][b] = kernel(dx*dx + dy*dy)
		}
	}
	return cov
}

// TestSampleCovarianceConverges draws many fields and checks the
// empirical covariance against the kernel (a statistical bound, hence
// the loose tolerance at this sample count).
func TestSampleCovarianceConverges(t *testing.T) {
	g := Grid{Rows: 4, Cols: 4, DX: 1.76, DY: 1.76}
	kernel := expKernel(1, 0.9, 1000)
	e, err := NewEmbedding(g, kernel)
	if err != nil {
		t.Fatalf("NewEmbedding: %v", err)
	}
	if !e.CanSample() {
		t.Fatalf("flow kernel not sampleable: rel err %g", e.SampleRelErr)
	}
	cov := denseCov(g, kernel)
	n := g.Rows * g.Cols
	const samples = 4000
	acc := make([]float64, n*n)
	field := make([]float64, n)
	rng := rand.New(rand.NewSource(99))
	for s := 0; s < samples; s++ {
		e.Sample(field, rng)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				acc[i*n+j] += field[i] * field[j]
			}
		}
	}
	maxErr := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			maxErr = math.Max(maxErr, math.Abs(acc[i*n+j]/samples-cov[i][j]))
		}
	}
	// Var of a sample-covariance entry is O(1/samples); 4000 samples
	// put 3σ near 0.05 for unit-variance fields, plus the documented
	// clamp bias (SampleRelErr, ~1e-4 here).
	if maxErr > 0.1 {
		t.Errorf("sample covariance off by %g after %d samples", maxErr, samples)
	}
}

// TestSampleDeterministic: same rng seed, same field.
func TestSampleDeterministic(t *testing.T) {
	g := Grid{Rows: 3, Cols: 5, DX: 1, DY: 1}
	e, err := NewEmbedding(g, expKernel(1, 0.9, 100))
	if err != nil {
		t.Fatalf("NewEmbedding: %v", err)
	}
	n := g.Rows * g.Cols
	a, b := make([]float64, n), make([]float64, n)
	e.Sample(a, rand.New(rand.NewSource(7)))
	e.Sample(b, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample not deterministic at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestEmbeddingNotSampleable: an oscillatory kernel keeps a strongly
// indefinite spectrum no padding fixes, so sampling must be refused.
func TestEmbeddingNotSampleable(t *testing.T) {
	osc := func(d2 float64) float64 { return math.Cos(3 * math.Sqrt(d2)) }
	g := Grid{Rows: 8, Cols: 8, DX: 1, DY: 1}
	e, err := NewEmbedding(g, osc)
	if err != nil {
		t.Fatalf("NewEmbedding: %v", err)
	}
	if e.CanSample() {
		t.Fatalf("oscillatory kernel reported sampleable (rel err %g)", e.SampleRelErr)
	}
	t.Logf("clamp bound %.3g > tolerance %g", e.SampleRelErr, sampleTol)
}

func TestEmbeddingRejectsBadArgs(t *testing.T) {
	k := expKernel(1, 0.9, 10)
	if _, err := NewEmbedding(Grid{Rows: 0, Cols: 4, DX: 1, DY: 1}, k); err == nil {
		t.Error("zero-row grid accepted")
	}
	if _, err := NewEmbedding(Grid{Rows: 2, Cols: 2, DX: math.NaN(), DY: 1}, k); err == nil {
		t.Error("NaN pitch accepted")
	}
	bad := func(d2 float64) float64 { return 0 }
	if _, err := NewEmbedding(Grid{Rows: 2, Cols: 2, DX: 1, DY: 1}, bad); err == nil {
		t.Error("zero-variance kernel accepted")
	}
}

func TestTorusDim(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 4}, {3, 8}, {4, 8}, {5, 16}, {8, 16}, {64, 128},
	} {
		if got := torusDim(tc.n); got != tc.want {
			t.Errorf("torusDim(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
