// Package fftk provides the FFT kernels behind the flow's structured-
// covariance paths (docs/PERFORMANCE.md, "Structured covariance"): an
// iterative radix-2 complex FFT with a Bluestein fallback for general
// lengths, separable 2-D plans, and two embeddings of a stationary
// correlation kernel. The row-spectral SemiEmbedding (semi.go) spans a
// lattice with uniform row pitch and arbitrary column positions; its
// QuadForms is the one structured analysis engine, turning the
// capacitor-level covariance's O(n²) pair sum into a per-frequency
// contraction, and its factorized draw samples routed layouts. The
// 2-D circulant Embedding (embed.go) is a sampler only: on a fully
// uniform grid it draws a correlated field in O(n log n).
//
// Plans are immutable after construction and safe for concurrent use;
// all mutable state lives in caller-supplied scratch (or, for the
// embeddings, in an internal sync.Pool), so par.ForN fan-out composes
// without locks.
//
// The evaluation environment has no external numeric libraries, so the
// transforms are implemented from scratch on complex128 slices.
package fftk

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan is a precomputed complex DFT of one fixed length. The forward
// transform uses the e^{-2πi jk/n} convention; Inverse applies the
// conjugate transform and the 1/n scale, so Inverse(Forward(x)) == x
// up to roundoff.
type Plan struct {
	n    int
	pow2 bool

	// Radix-2 machinery (pow2 lengths): bit-reversal permutation and
	// the first half of the forward twiddle circle.
	rev []int
	tw  []complex128

	// Bluestein machinery (general lengths): the chirp w_k =
	// e^{-iπk²/n}, the padded pow2 convolution sub-plan, and the
	// precomputed spectrum of the chirp filter.
	chirp []complex128
	conv  *Plan
	bspec []complex128
}

// NewPlan builds a plan for length n ≥ 1. Powers of two take the
// iterative radix-2 path; any other length is handled by Bluestein's
// chirp-z reduction to a padded power-of-two convolution, so arbitrary
// grid dimensions never silently fall back to an O(n²) DFT.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fftk: plan length %d, want >= 1", n)
	}
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.rev = bitReversal(n)
		p.tw = forwardTwiddles(n)
		return p, nil
	}
	// Bluestein: X_k = w_k · Σ_j (x_j w_j) v_{k−j} with v = conj(w),
	// a linear convolution of length 2n−1 embedded in a pow2 circle.
	m := 1 << uint(bits.Len(uint(2*n-2)))
	conv, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	p.conv = conv
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² mod 2n keeps the chirp phase exact for large k (the phase
		// of e^{-iπk²/n} has period 2n in k²).
		ph := -math.Pi * float64((k*k)%(2*n)) / float64(n)
		p.chirp[k] = cis(ph)
	}
	b := make([]complex128, m)
	b[0] = 1
	for k := 1; k < n; k++ {
		v := cmplxConj(p.chirp[k])
		b[k], b[m-k] = v, v
	}
	conv.Forward(b)
	p.bspec = b
	return p, nil
}

// N returns the plan's transform length.
func (p *Plan) N() int { return p.n }

// Forward transforms x in place; len(x) must equal N(). A Bluestein
// plan allocates its two convolution buffers per call — the flow's hot
// paths use pow2 torus dimensions where Forward is allocation-free.
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fftk: Forward length %d, want %d", len(x), p.n))
	}
	if p.n == 1 {
		return
	}
	if p.pow2 {
		p.radix2(x)
		return
	}
	p.bluestein(x)
}

// Inverse applies the inverse transform in place, including the 1/n
// normalization.
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fftk: Inverse length %d, want %d", len(x), p.n))
	}
	for i, v := range x {
		x[i] = cmplxConj(v)
	}
	p.Forward(x)
	inv := complex(1/float64(p.n), 0)
	for i, v := range x {
		x[i] = cmplxConj(v) * inv
	}
}

// radix2 is the iterative decimation-in-time butterfly over a
// bit-reversed input ordering.
func (p *Plan) radix2(x []complex128) {
	n := p.n
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * p.tw[ti]
				x[k] = a + b
				x[k+half] = a - b
				ti += step
			}
		}
	}
}

// bluestein evaluates the chirp-z transform via the precomputed padded
// convolution.
func (p *Plan) bluestein(x []complex128) {
	m := p.conv.n
	a := make([]complex128, m)
	for j := 0; j < p.n; j++ {
		a[j] = x[j] * p.chirp[j]
	}
	p.conv.Forward(a)
	for i := range a {
		a[i] *= p.bspec[i]
	}
	p.conv.Inverse(a)
	for k := 0; k < p.n; k++ {
		x[k] = p.chirp[k] * a[k]
	}
}

// Plan2D is a separable forward 2-D DFT over a rows×cols row-major grid:
// a length-cols transform of every row followed by a length-rows
// transform of every column. Like Plan, it is immutable and
// concurrency-safe; the column gather/scatter buffer is caller scratch.
type Plan2D struct {
	Rows, Cols int
	row, col   *Plan
}

// NewPlan2D builds a 2-D plan for a rows×cols grid.
func NewPlan2D(rows, cols int) (*Plan2D, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("fftk: plan dims %dx%d, want >= 1", rows, cols)
	}
	rp, err := NewPlan(cols)
	if err != nil {
		return nil, err
	}
	cp, err := NewPlan(rows)
	if err != nil {
		return nil, err
	}
	return &Plan2D{Rows: rows, Cols: cols, row: rp, col: cp}, nil
}

// Forward transforms x (row-major, len Rows*Cols) in place. colBuf is
// scratch of length Rows for the strided column passes.
func (p *Plan2D) Forward(x, colBuf []complex128) {
	p.transform(x, colBuf, p.Cols)
}

// transform runs the forward row pass over every row and the column
// pass over the first cols columns only. Column transforms are
// independent, so the columns it does transform are bit-identical to
// a full transform's; the rest are left after the row pass.
func (p *Plan2D) transform(x, colBuf []complex128, cols int) {
	if len(x) != p.Rows*p.Cols {
		panic(fmt.Sprintf("fftk: 2-D transform length %d, want %d", len(x), p.Rows*p.Cols))
	}
	if len(colBuf) < p.Rows {
		panic(fmt.Sprintf("fftk: 2-D column scratch length %d, want >= %d", len(colBuf), p.Rows))
	}
	for r := 0; r < p.Rows; r++ {
		p.row.Forward(x[r*p.Cols : (r+1)*p.Cols])
	}
	cb := colBuf[:p.Rows]
	for c := 0; c < cols; c++ {
		for r := 0; r < p.Rows; r++ {
			cb[r] = x[r*p.Cols+c]
		}
		p.col.Forward(cb)
		for r := 0; r < p.Rows; r++ {
			x[r*p.Cols+c] = cb[r]
		}
	}
}

// bitReversal returns the bit-reversal permutation for pow2 n.
func bitReversal(n int) []int {
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	rev := make([]int, n)
	for i := range rev {
		rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	return rev
}

// forwardTwiddles returns e^{-2πik/n} for k in [0, n/2).
func forwardTwiddles(n int) []complex128 {
	tw := make([]complex128, n/2)
	for k := range tw {
		tw[k] = cis(-2 * math.Pi * float64(k) / float64(n))
	}
	return tw
}

func cis(ph float64) complex128 {
	s, c := math.Sincos(ph)
	return complex(c, s)
}

func cmplxConj(v complex128) complex128 { return complex(real(v), -imag(v)) }
