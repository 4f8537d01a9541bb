package fftk

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below pin the sampling kernels' bit identity: each lean
// path (pruned column pass, triangular factor rows, parallel
// factorization) must reproduce the straightforward computation
// exactly, not just statistically.

// TestEmbeddingSamplePrunedColumnsExact replays Embedding.Sample with
// a full 2-D transform and requires the pruned draw to match it bit
// for bit.
func TestEmbeddingSamplePrunedColumnsExact(t *testing.T) {
	g := Grid{Rows: 5, Cols: 7, DX: 1.3, DY: 0.9}
	e, err := NewEmbedding(g, expKernel(1, 0.9, 100))
	if err != nil {
		t.Fatal(err)
	}
	n := g.Rows * g.Cols
	got := make([]float64, n)
	for seed := int64(1); seed <= 5; seed++ {
		e.Sample(got, rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed))
		buf := make([]complex128, e.p*e.q)
		for i, sl := range e.sqrtLam {
			re := rng.NormFloat64()
			im := rng.NormFloat64()
			buf[i] = complex(sl*re, sl*im)
		}
		e.plan.Forward(buf, make([]complex128, e.p))
		for r := 0; r < g.Rows; r++ {
			for c := 0; c < g.Cols; c++ {
				if want := real(buf[r*e.q+c]); got[r*g.Cols+c] != want {
					t.Fatalf("seed %d cell (%d,%d): pruned %v, full %v", seed, r, c, got[r*g.Cols+c], want)
				}
			}
		}
	}
}

// longSemi is a separable lattice under the long-range mismatch kernel
// shape, whose spectra mix Cholesky and eigen-clamped frequencies.
func longSemi(t *testing.T) *SemiEmbedding {
	t.Helper()
	longKernel := func(d2 float64) float64 { return math.Exp(-math.Sqrt(d2) / 200) }
	g := SemiGrid{Rows: 32, DY: 1, ColX: []float64{0, 1.7, 3.1, 4.9, 7.2, 8.8}}
	e, err := NewSemiEmbedding(g, longKernel, math.Float64bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSemiFactorizeWorkersIdentical: the per-frequency factors, their
// branch record and the gate are identical at 1 and 2 workers, and
// the lattice exercises both factorization branches.
func TestSemiFactorizeWorkersIdentical(t *testing.T) {
	e1, e2 := longSemi(t), longSemi(t)
	ok1, ok2 := e1.Factorize(1), e2.Factorize(2)
	if ok1 != ok2 || e1.SampleRelErr != e2.SampleRelErr {
		t.Fatalf("gate differs: 1 worker (%v, %v), 2 workers (%v, %v)", ok1, e1.SampleRelErr, ok2, e2.SampleRelErr)
	}
	chol := 0
	for d := range e1.fac {
		if e1.lower[d] != e2.lower[d] {
			t.Fatalf("frequency %d: branch differs across worker counts", d)
		}
		if e1.lower[d] {
			chol++
		}
		for i, v := range e1.fac[d] {
			if e2.fac[d][i] != v {
				t.Fatalf("frequency %d factor entry %d: %v vs %v", d, i, v, e2.fac[d][i])
			}
		}
	}
	if chol == 0 || chol == len(e1.fac) {
		t.Fatalf("%d of %d frequencies took Cholesky; want a mix of both branches", chol, len(e1.fac))
	}
}

// TestSemiSampleTriangularExact: skipping the zero upper triangle of
// the Cholesky factors leaves every sample bit-identical to the full
// dense row product.
func TestSemiSampleTriangularExact(t *testing.T) {
	e := longSemi(t)
	if !e.CanSample() {
		t.Fatalf("CanSample = false (SampleRelErr %g)", e.SampleRelErr)
	}
	n := e.g.Rows * e.cols
	lean := make([][]float64, 4)
	for s := range lean {
		lean[s] = make([]float64, n)
		e.Sample(lean[s], rand.New(rand.NewSource(int64(100+s))))
	}
	for d := range e.lower {
		e.lower[d] = false
	}
	full := make([]float64, n)
	for s := range lean {
		e.Sample(full, rand.New(rand.NewSource(int64(100+s))))
		for i, v := range full {
			if lean[s][i] != v {
				t.Fatalf("sample %d cell %d: triangular %v, full %v", s, i, lean[s][i], v)
			}
		}
	}
}
