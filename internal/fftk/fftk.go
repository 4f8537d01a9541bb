// Package fftk provides the FFT kernels behind the flow's structured-
// covariance paths (docs/PERFORMANCE.md, "Structured covariance"): an
// iterative radix-2 complex FFT over power-of-two lengths, separable
// 2-D plans, and two embeddings of a stationary correlation kernel.
// Every torus they transform is a power of two on each axis
// (torusDim). The row-spectral SemiEmbedding (semi.go) spans a
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
	"math/cmplx"
)

// Plan is a precomputed complex DFT of one fixed power-of-two length:
// the bit-reversal permutation and the first half of the forward
// twiddle circle. The forward transform uses the e^{-2πi jk/n}
// convention; Inverse applies the conjugate transform and the 1/n
// scale, so Inverse(Forward(x)) == x up to roundoff.
type Plan struct {
	n   int
	rev []int
	tw  []complex128
}

// NewPlan builds a plan for a power-of-two length n ≥ 1 and returns an
// error for any other length.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fftk: plan length %d, want a power of two >= 1", n)
	}
	return &Plan{n: n, rev: bitReversal(n), tw: forwardTwiddles(n)}, nil
}

// Forward transforms x in place, without allocating; len(x) must equal
// the plan's length.
func (p *Plan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fftk: Forward length %d, want %d", len(x), p.n))
	}
	p.radix2(x)
}

// Inverse applies the inverse transform in place, including the 1/n
// normalization.
func (p *Plan) Inverse(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fftk: Inverse length %d, want %d", len(x), p.n))
	}
	for i, v := range x {
		x[i] = cmplx.Conj(v)
	}
	p.Forward(x)
	inv := complex(1/float64(p.n), 0)
	for i, v := range x {
		x[i] = cmplx.Conj(v) * inv
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

// Plan2D is a separable forward 2-D DFT over a rows×cols row-major grid:
// a length-cols transform of every row followed by a length-rows
// transform of every column. Like Plan, it is immutable and
// concurrency-safe; the column gather/scatter buffer is caller scratch.
type Plan2D struct {
	Rows, Cols int
	row, col   *Plan
}

// NewPlan2D builds a 2-D plan for a rows×cols grid; both dimensions
// must be powers of two.
func NewPlan2D(rows, cols int) (*Plan2D, error) {
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
