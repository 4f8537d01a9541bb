package linalg

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ccdac/internal/fault"
)

// Sparse is a symmetric sparse matrix assembled from coordinate
// triplets, intended for nodal conductance matrices of RC networks.
// Only one triangle needs to be stamped for off-diagonal entries if
// Symmetric stamping is used via AddSym.
type Sparse struct {
	N    int
	rows [][]sparseEntry // per-row adjacency, kept sorted by column
}

type sparseEntry struct {
	col int
	val float64
}

// NewSparse returns a zero n×n symmetric sparse matrix.
func NewSparse(n int) *Sparse {
	return &Sparse{N: n, rows: make([][]sparseEntry, n)}
}

// Add increments entry (i, j) by v. For symmetric stamping of an
// off-diagonal conductance use AddSym.
func (s *Sparse) Add(i, j int, v float64) {
	if i < 0 || i >= s.N || j < 0 || j >= s.N {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range n=%d", i, j, s.N))
	}
	row := s.rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].col >= j })
	if k < len(row) && row[k].col == j {
		row[k].val += v
		return
	}
	row = append(row, sparseEntry{})
	copy(row[k+1:], row[k:])
	row[k] = sparseEntry{col: j, val: v}
	s.rows[i] = row
}

// AddSym increments both (i, j) and (j, i) by v.
func (s *Sparse) AddSym(i, j int, v float64) {
	s.Add(i, j, v)
	if i != j {
		s.Add(j, i, v)
	}
}

// At returns entry (i, j).
func (s *Sparse) At(i, j int) float64 {
	row := s.rows[i]
	k := sort.Search(len(row), func(k int) bool { return row[k].col >= j })
	if k < len(row) && row[k].col == j {
		return row[k].val
	}
	return 0
}

// MulVec computes y = S·x.
func (s *Sparse) MulVec(x, y []float64) {
	for i := 0; i < s.N; i++ {
		acc := 0.0
		for _, e := range s.rows[i] {
			acc += e.val * x[e.col]
		}
		y[i] = acc
	}
}

// ToDense materializes the sparse matrix as a dense one — used by the
// direct-factorization fallback when the iterative solve stalls.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.N)
	for i, row := range s.rows {
		for _, e := range row {
			d.Data[i*s.N+e.col] = e.val
		}
	}
	return d
}

// cgScratch holds the five working vectors of one CG solve. Extraction
// solves a first-moment system for every meshed bit network, so
// steady-state serving churns through thousands of solves; pooling the
// scratch (everything but the returned solution) removes five of the
// six allocations per solve without changing a single arithmetic step.
type cgScratch struct {
	mInv, r, z, p, ap []float64
}

var cgScratchPool = sync.Pool{New: func() any { return &cgScratch{} }}

// grow resizes every vector to n, reallocating only on growth.
func (c *cgScratch) grow(n int) {
	if cap(c.mInv) < n {
		c.mInv = make([]float64, n)
		c.r = make([]float64, n)
		c.z = make([]float64, n)
		c.p = make([]float64, n)
		c.ap = make([]float64, n)
		return
	}
	c.mInv, c.r, c.z, c.p, c.ap = c.mInv[:n], c.r[:n], c.z[:n], c.p[:n], c.ap[:n]
}

// CGStats reports the effort and terminal accuracy of one CG solve —
// the raw material for the numeric-health telemetry. Residual is the
// final relative residual ‖b − A·x‖₂/‖b‖₂ (0 for a zero rhs, which is
// solved exactly); on ErrNotConverged it is the residual at the
// iteration cap, quantifying how far the solve was from the target
// before the dense fallback took over.
type CGStats struct {
	Iterations int
	Residual   float64
}

// SolveCG solves S·x = b for a symmetric positive-definite S using
// Jacobi-preconditioned conjugate gradients. tol is the relative
// residual target (e.g. 1e-12); maxIter <= 0 selects 10·N iterations.
// The stats report the iterations performed (maxIter when the solve
// did not converge) and the final relative residual.
func (s *Sparse) SolveCG(b []float64, tol float64, maxIter int) ([]float64, CGStats, error) {
	if err := fault.Check(fault.StageLinalgCG); err != nil {
		return nil, CGStats{}, err
	}
	n := s.N
	if len(b) != n {
		return nil, CGStats{}, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	scratch := cgScratchPool.Get().(*cgScratch)
	defer cgScratchPool.Put(scratch)
	scratch.grow(n)
	// Jacobi preconditioner: inverse diagonal.
	mInv := scratch.mInv
	for i := 0; i < n; i++ {
		d := s.At(i, i)
		if d <= 0 {
			return nil, CGStats{}, fmt.Errorf("linalg: non-positive diagonal %g at %d (matrix not SPD)", d, i)
		}
		mInv[i] = 1 / d
	}
	x := make([]float64, n) // escapes as the result; never pooled
	r := scratch.r
	copy(r, b)
	normB := norm2(b)
	if normB == 0 {
		return x, CGStats{}, nil
	}
	z, p := scratch.z, scratch.p
	for i := range z {
		z[i] = mInv[i] * r[i]
	}
	copy(p, z)
	rz := dot(r, z)
	ap := scratch.ap
	for it := 0; it < maxIter; it++ {
		s.MulVec(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, CGStats{Iterations: it, Residual: norm2(r) / normB},
				fmt.Errorf("linalg: breakdown pᵀAp = %g at iteration %d", pap, it)
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if res := norm2(r); res <= tol*normB {
			return x, CGStats{Iterations: it + 1, Residual: res / normB}, nil
		}
		for i := range z {
			z[i] = mInv[i] * r[i]
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return nil, CGStats{Iterations: maxIter, Residual: norm2(r) / normB}, ErrNotConverged
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm2(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}
