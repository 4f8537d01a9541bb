package linalg

import (
	"fmt"
	"testing"
)

// benchLaplacian builds the n-node path-graph Laplacian plus a ground
// leak — the same SPD structure RC moment solves produce — so the
// benchmark measures the real solver hot path.
func benchLaplacian(n int) *Sparse {
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		s.Add(i, i, 1e-3) // ground conductance keeps the system SPD
	}
	for i := 0; i+1 < n; i++ {
		s.AddSym(i, i+1, -1)
		s.Add(i, i, 1)
		s.Add(i+1, i+1, 1)
	}
	return s
}

// BenchmarkSolveCG exercises the pooled-scratch CG path; run with
// -benchmem to confirm allocations per solve (the result vector is the
// only remaining per-call allocation).
func BenchmarkSolveCG(b *testing.B) {
	const n = 256
	s := benchLaplacian(n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) + 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SolveCG(rhs, 1e-12, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSPD exercises the dense Cholesky fallback with the
// fused forward/back substitution buffer. The column-form
// factorization costs O(n³); the larger sizes show where its row
// streams leave the cache.
func BenchmarkSolveSPD(b *testing.B) {
	for _, n := range []int{128, 512, 1024, 2048} {
		d := benchLaplacian(n).ToDense()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%5) + 1
		}
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveSPD(d, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
