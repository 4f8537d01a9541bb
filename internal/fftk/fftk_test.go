package fftk

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		s := complex(0, 0)
		for j := 0; j < n; j++ {
			ph := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ph))
		}
		out[k] = s
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		m = math.Max(m, cmplx.Abs(a[i]-b[i]))
	}
	return m
}

// TestForwardMatchesNaiveDFT checks the radix-2 transform against the
// direct DFT at every power-of-two length up to 128.
func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := randComplex(n, rng)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: forward differs from naive DFT by %g", n, d)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 64, 256} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := randComplex(n, rng)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		p.Inverse(got)
		if d := maxAbsDiff(got, x); d > 1e-10*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, d)
		}
	}
}

// TestPlan2DMatchesNaive checks the separable 2-D transform against
// row/column naive DFTs, including non-square grids.
func TestPlan2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{1, 1}, {2, 4}, {4, 4}, {4, 8}, {8, 2}} {
		rows, cols := dims[0], dims[1]
		p, err := NewPlan2D(rows, cols)
		if err != nil {
			t.Fatalf("NewPlan2D(%d, %d): %v", rows, cols, err)
		}
		x := randComplex(rows*cols, rng)
		want := append([]complex128(nil), x...)
		for r := 0; r < rows; r++ {
			copy(want[r*cols:(r+1)*cols], naiveDFT(want[r*cols:(r+1)*cols]))
		}
		col := make([]complex128, rows)
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				col[r] = want[r*cols+c]
			}
			fc := naiveDFT(col)
			for r := 0; r < rows; r++ {
				want[r*cols+c] = fc[r]
			}
		}
		got := append([]complex128(nil), x...)
		buf := make([]complex128, rows)
		p.Forward(got, buf)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(rows*cols) {
			t.Errorf("%dx%d: 2-D forward differs by %g", rows, cols, d)
		}
	}
}

func TestPlanRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 12, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) succeeded, want error", n)
		}
	}
	if _, err := NewPlan2D(0, 4); err == nil {
		t.Error("NewPlan2D(0, 4) succeeded, want error")
	}
	if _, err := NewPlan2D(4, 6); err == nil {
		t.Error("NewPlan2D(4, 6) succeeded, want error")
	}
}
