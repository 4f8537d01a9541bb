// Package linalg provides the dense kernels the flow needs: a dense
// matrix and its Cholesky factorization, with which the exact
// Monte-Carlo sampler draws correlated capacitor mismatch, plus a
// condition estimate read off the factor.
//
// The evaluation environment has no external numeric libraries, so
// these are implemented from scratch on float64 slices.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a dense row-major n×n matrix.
type Dense struct {
	N    int
	Data []float64 // row-major, len N*N
}

// NewDense returns a zero n×n matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.N)
	copy(c.Data, m.Data)
	return c
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix. The exact Monte-Carlo sampler
// factors the (N+1)×(N+1) capacitor covariance with it.
// It returns an error if A is not (numerically) positive definite.
//
// The factorization is the plain column form: column j's pivot and
// every entry below it are dot products over the columns left of j,
// accumulated in ascending column order. a is left untouched.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.N
	l := NewDense(n)
	for i := 0; i < n; i++ {
		copy(l.Data[i*n:i*n+i+1], a.Data[i*n:i*n+i+1])
	}
	for j := 0; j < n; j++ {
		rj := l.Data[j*n : j*n+j]
		d := l.Data[j*n+j]
		for _, v := range rj {
			d -= v * v
		}
		if d <= 0 {
			return nil, fmt.Errorf("linalg: matrix not positive definite at column %d (pivot %g)", j, d)
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := l.Data[i*n+j]
			for t, v := range l.Data[i*n : i*n+j] {
				s -= v * rj[t]
			}
			l.Data[i*n+j] = s / ljj
		}
	}
	return l, nil
}

// CondEstFromChol estimates the 2-norm condition number of the SPD
// matrix A from its Cholesky factor L (A = L·Lᵀ) as
// (max L[i][i] / min L[i][i])². The squared diagonal ratio of L is a
// classical cheap lower bound on κ₂(A) — exact for diagonal matrices,
// and within a small factor for diagonally dominant ones. It costs
// O(n) on a factor that was already computed, which is what lets the
// exact Monte-Carlo sampler set the ccdac_numeric_cov_cond_estimate
// gauge on every run without a second factorization.
// Returns +Inf for a non-positive diagonal and 1 for an empty factor.
func CondEstFromChol(l *Dense) float64 {
	if l.N == 0 {
		return 1
	}
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < l.N; i++ {
		d := l.At(i, i)
		if d <= 0 {
			return math.Inf(1)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	r := hi / lo
	return r * r
}
