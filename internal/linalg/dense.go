// Package linalg provides the small numerical kernels the flow needs:
// dense LU factorization with partial pivoting, dense Cholesky (for
// sampling correlated mismatch in the Monte-Carlo extension), and a
// sparse symmetric-positive-definite matrix with a Jacobi-preconditioned
// conjugate-gradient solver (for first-moment analysis of RC networks
// that are meshes rather than trees).
//
// The evaluation environment has no external numeric libraries, so
// these are implemented from scratch on float64 slices.
package linalg

import (
	"errors"
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

// MulVec computes y = M·x, allocating the result. Hot paths that
// solve repeatedly should reuse a destination via MulVecTo.
func (m *Dense) MulVec(x []float64) []float64 {
	y := make([]float64, m.N)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes dst = M·x in place; dst must have length N and may
// not alias x.
func (m *Dense) MulVecTo(dst, x []float64) {
	if len(dst) != m.N {
		panic(fmt.Sprintf("linalg: MulVecTo dst length %d, want %d", len(dst), m.N))
	}
	for i := 0; i < m.N; i++ {
		row := m.Data[i*m.N : (i+1)*m.N]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	n    int
	lu   []float64 // packed L (unit diagonal, below) and U (on/above)
	piv  []int
	sign int
}

// LUFactor factors a into an LU decomposition with partial pivoting.
// It returns an error if the matrix is singular to working precision.
func LUFactor(a *Dense) (*LU, error) {
	n := a.N
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest |entry| in column k at/below row k.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at pivot %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= l * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b for x using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), f.n)
	}
	n := f.n
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// cholBlock is the panel width of the blocked Cholesky: wide enough
// to amortize the trailing-update loop overhead, narrow enough that a
// panel row (cholBlock·8 bytes) stays L1-resident during the
// rank-k update's dot products.
const cholBlock = 64

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix. Used to sample correlated
// Gaussian mismatch vectors in the Monte-Carlo extension, and as the
// CG solver's direct fallback.
// It returns an error if A is not (numerically) positive definite.
//
// The factorization is right-looking and blocked: factor a
// cholBlock-wide diagonal panel, solve the rows below it, then fold
// the panel into the trailing submatrix with fixed-width dot products.
// The left-looking column loop it replaces streamed two full-length
// rows per dot product — past ~2k that is two L1 evictions per entry;
// the blocked trailing update reads cholBlock-length row slices that
// stay cached, roughly halving large-n factor time.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.N
	l := NewDense(n)
	// Seed the factor with A's lower triangle — the only part the
	// right-looking updates read or write; a is left untouched.
	for i := 0; i < n; i++ {
		copy(l.Data[i*n:i*n+i+1], a.Data[i*n:i*n+i+1])
	}
	for k := 0; k < n; k += cholBlock {
		kb := k + cholBlock
		if kb > n {
			kb = n
		}
		// Factor the diagonal block in place (unblocked; earlier
		// panels already folded their contributions in, so only
		// within-panel columns feed these sums).
		for j := k; j < kb; j++ {
			d := l.Data[j*n+j]
			for t := k; t < j; t++ {
				d -= l.Data[j*n+t] * l.Data[j*n+t]
			}
			if d <= 0 {
				return nil, fmt.Errorf("linalg: matrix not positive definite at column %d (pivot %g)", j, d)
			}
			ljj := math.Sqrt(d)
			l.Data[j*n+j] = ljj
			for i := j + 1; i < kb; i++ {
				s := l.Data[i*n+j]
				for t := k; t < j; t++ {
					s -= l.Data[i*n+t] * l.Data[j*n+t]
				}
				l.Data[i*n+j] = s / ljj
			}
		}
		// Panel solve: rows below the block against the factored
		// diagonal block's transpose.
		for i := kb; i < n; i++ {
			for j := k; j < kb; j++ {
				s := l.Data[i*n+j]
				for t := k; t < j; t++ {
					s -= l.Data[i*n+t] * l.Data[j*n+t]
				}
				l.Data[i*n+j] = s / l.Data[j*n+j]
			}
		}
		// Trailing rank-kb update: A22 -= L21·L21ᵀ, lower triangle
		// only. The update is memory-bound (each entry is one
		// fixed-width dot over two panel rows), so it runs 2×2
		// register-tiled: every loaded row feeds two dot products,
		// doubling the arithmetic intensity of the dominant stream.
		i := kb
		for ; i+1 < n; i += 2 {
			ri0 := l.Data[i*n+k : i*n+kb]
			ri1 := l.Data[(i+1)*n+k : (i+1)*n+kb]
			j := kb
			for ; j+1 <= i; j += 2 {
				rj0 := l.Data[j*n+k : j*n+kb]
				rj1 := l.Data[(j+1)*n+k : (j+1)*n+kb]
				var s00, s01, s10, s11 float64
				for t := range rj0 {
					a0, a1 := ri0[t], ri1[t]
					b0, b1 := rj0[t], rj1[t]
					s00 += a0 * b0
					s01 += a0 * b1
					s10 += a1 * b0
					s11 += a1 * b1
				}
				l.Data[i*n+j] -= s00
				l.Data[i*n+j+1] -= s01
				l.Data[(i+1)*n+j] -= s10
				l.Data[(i+1)*n+j+1] -= s11
			}
			for ; j <= i; j++ {
				rj := l.Data[j*n+k : j*n+kb]
				var s0, s1 float64
				for t := range rj {
					s0 += ri0[t] * rj[t]
					s1 += ri1[t] * rj[t]
				}
				l.Data[i*n+j] -= s0
				l.Data[(i+1)*n+j] -= s1
			}
			// Row i+1's diagonal-column entry (j = i+1) pairs with no
			// column of row i; it is the row's self dot.
			var s float64
			for _, v := range ri1 {
				s += v * v
			}
			l.Data[(i+1)*n+(i+1)] -= s
		}
		if i < n { // odd trailing row
			ri := l.Data[i*n+k : i*n+kb]
			for j := kb; j <= i; j++ {
				rj := l.Data[j*n+k : j*n+kb]
				s := 0.0
				for t, v := range ri {
					s += v * rj[t]
				}
				l.Data[i*n+j] -= s
			}
		}
	}
	return l, nil
}

// CondEstFromChol estimates the 2-norm condition number of the SPD
// matrix A from its Cholesky factor L (A = L·Lᵀ) as
// (max L[i][i] / min L[i][i])². The squared diagonal ratio of L is a
// classical cheap lower bound on κ₂(A) — exact for diagonal matrices,
// and within a small factor for the diagonally dominant covariance and
// conductance matrices this flow produces. It costs O(n) on a factor
// that was already computed, which is what lets the health endpoint
// report conditioning on every request without a second factorization.
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

// SolveSPD solves A·x = b for a symmetric positive-definite A by dense
// Cholesky factorization with forward/back substitution — the robust
// direct fallback when the iterative CG solve fails to converge.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	n := a.N
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	// One slice serves both substitutions: the back pass reads x[i]
	// (the forward result y_i) before overwriting it, and only indices
	// above i — already finalized — feed each step.
	x := make([]float64, n)
	// Forward substitution: L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// ErrNotConverged is returned by iterative solvers that exhaust their
// iteration budget before reaching the requested tolerance.
var ErrNotConverged = errors.New("linalg: iterative solver did not converge")
