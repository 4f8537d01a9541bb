// Circulant embedding of a stationary correlation kernel on a regular
// grid, for correlated Gaussian sampling. The unit-cell covariance
// C[a][b] = k(d²(a,b)) of a rows×cols lattice with uniform pitch is
// block-Toeplitz with Toeplitz blocks; embedding it in the covariance
// of a P×Q torus (P ≥ 2·rows−1, Q ≥ 2·cols−1, rounded to powers of
// two) makes the operator circulant, so its eigenvalues are one 2-D
// FFT of the first kernel row and every draw costs O(M log M), M =
// P·Q — never materializing the n×n matrix. (Quadratic forms of the
// covariance, uniform grid or not, are SemiEmbedding.QuadForms' job.)
//
// Sampling needs a nonnegative spectrum: negative eigenvalues are
// clamped to zero, which perturbs every covariance entry by at most
// Σ|λ_neg|/M — the construction measures that bound, retries once on
// a doubled torus when it exceeds sampleTol, and disables sampling
// (CanSample false, the caller's cue to fall back to exact sampling)
// when padding cannot fix it either.
package fftk

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// sampleTol is the largest tolerated entrywise covariance error of a
// clamped sampling spectrum, relative to the kernel's variance k(0).
// The flow's long-range exp kernel sits near 3e-3 at 14-bit grids.
const sampleTol = 1e-2

// maxDoublings bounds how many times the torus may be doubled chasing
// a sampleable spectrum: each doubling quadruples the spectral work,
// so the chase must stay bounded.
const maxDoublings = 1

// Grid describes the regular lattice being embedded: dimensions in
// cells and the uniform pitch (microns) along each axis.
type Grid struct {
	Rows, Cols int
	DX, DY     float64
}

// Embedding is the sampling spectrum of one grid kernel plus the 2-D
// plan that diagonalizes the circulant. It is immutable after
// construction and safe for concurrent use; per-call scratch comes
// from an internal pool.
type Embedding struct {
	grid Grid
	p, q int // torus dims (pow2), p rows × q cols

	sqrtLam []float64 // sqrt(max(λ,0)/M), the sampling spectrum
	plan    *Plan2D
	pool    sync.Pool

	// SampleRelErr is Σ|λ_neg|/M relative to k(0): the entrywise
	// covariance error bound of the clamped sampling spectrum.
	SampleRelErr float64
	// canSample records whether SampleRelErr passed sampleTol.
	canSample bool
}

type embedScratch struct {
	buf []complex128 // torus field, len p*q
	col []complex128 // column pass, len p
}

// NewEmbedding builds the circulant embedding of kernel(d²) — d² in
// µm² — over g. Construction only fails on degenerate arguments;
// whether the spectrum supports sampling is reported by CanSample.
func NewEmbedding(g Grid, kernel func(d2 float64) float64) (*Embedding, error) {
	if g.Rows < 1 || g.Cols < 1 {
		return nil, fmt.Errorf("fftk: embedding grid %dx%d, want >= 1", g.Rows, g.Cols)
	}
	if !(g.DX >= 0) || !(g.DY >= 0) {
		return nil, fmt.Errorf("fftk: embedding pitch (%g, %g), want >= 0", g.DX, g.DY)
	}
	k0 := kernel(0)
	if !(k0 > 0) || math.IsInf(k0, 0) || math.IsNaN(k0) {
		return nil, fmt.Errorf("fftk: kernel variance k(0) = %g, want finite > 0", k0)
	}

	e := &Embedding{grid: g}
	p0, q0 := torusDim(g.Rows), torusDim(g.Cols)
	for dbl := 0; ; dbl++ {
		p, q := p0<<uint(dbl), q0<<uint(dbl)
		plan, err := NewPlan2D(p, q)
		if err != nil {
			return nil, err
		}
		// First kernel row on the torus: entry (r, c) is the kernel at
		// the wrapped displacement (min(r, P−r)·DY, min(c, Q−c)·DX).
		spec := make([]complex128, p*q)
		for r := 0; r < p; r++ {
			wr := float64(min(r, p-r)) * g.DY
			for c := 0; c < q; c++ {
				wc := float64(min(c, q-c)) * g.DX
				spec[r*q+c] = complex(kernel(wr*wr+wc*wc), 0)
			}
		}
		plan.Forward(spec, make([]complex128, p))

		m := float64(p * q)
		sumNeg := 0.0
		for _, v := range spec {
			if l := real(v); l < 0 {
				sumNeg -= l
			}
		}
		relErr := sumNeg / m / k0
		if relErr > sampleTol && dbl < maxDoublings {
			continue // pad: a bigger torus may relax the wrap-around kink
		}
		e.p, e.q = p, q
		e.plan = plan
		e.SampleRelErr = relErr
		e.canSample = relErr <= sampleTol
		e.sqrtLam = make([]float64, len(spec))
		for i, v := range spec {
			if l := real(v); l > 0 {
				e.sqrtLam[i] = math.Sqrt(l / m)
			}
		}
		e.pool.New = func() any {
			return &embedScratch{
				buf: make([]complex128, p*q),
				col: make([]complex128, p),
			}
		}
		return e, nil
	}
}

// torusDim returns the power-of-two torus length embedding a line of n
// cells: ≥ 2(n−1)+1 so every lattice displacement appears unwrapped.
func torusDim(n int) int {
	need := 2*(n-1) + 1
	if need <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(need-1)))
}

// CanSample reports whether the clamped spectrum's covariance error
// stayed within sampleTol — the precondition for Sample.
func (e *Embedding) CanSample() bool { return e.canSample }

// Sample draws one zero-mean Gaussian field with covariance C into dst
// (row-major over the lattice, len Rows*Cols): spectral noise ε_k =
// ξ+iη scaled by sqrt(λ_k/M), one forward transform, real part at the
// lattice cells. Both quadratures of the complex output carry the
// target covariance; the real one is used. Only the first Cols torus
// columns reach the lattice, so the column pass transforms just those
// (see Plan2D.transform). Exactly 2M normal variates
// are consumed from rng in torus-index order, so a fixed per-sample
// stream yields a byte-stable sample at any worker count. Callers must
// check CanSample first; an indefinite spectrum's clamp error is
// unbounded here.
func (e *Embedding) Sample(dst []float64, rng *rand.Rand) {
	n := e.grid.Rows * e.grid.Cols
	if len(dst) != n {
		panic(fmt.Sprintf("fftk: Sample length %d, want %d", len(dst), n))
	}
	s := e.pool.Get().(*embedScratch)
	defer e.pool.Put(s)
	for i, sl := range e.sqrtLam {
		re := rng.NormFloat64()
		im := rng.NormFloat64()
		s.buf[i] = complex(sl*re, sl*im)
	}
	e.plan.transform(s.buf, s.col, e.grid.Cols)
	for r := 0; r < e.grid.Rows; r++ {
		for c := 0; c < e.grid.Cols; c++ {
			dst[r*e.grid.Cols+c] = real(s.buf[r*e.q+c])
		}
	}
}
