package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCholesky factors SPD matrices at the exact sampler's sizes:
// the (N+1)×(N+1) capacitor covariance at 6 and 12 bits (7 and 13),
// and 64, past any resolution the flow accepts.
func BenchmarkCholesky(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{7, 13, 64} {
		// B·Bᵀ + n·I is SPD and well conditioned.
		m := NewDense(n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += m.At(i, k) * m.At(j, k)
				}
				a.Set(i, j, s)
			}
			a.Add(i, i, float64(n))
		}
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cholesky(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
