package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseAccessors(t *testing.T) {
	m := NewDense(3)
	m.Set(0, 2, 5)
	m.Add(0, 2, 1)
	if m.At(0, 2) != 6 {
		t.Fatalf("At = %g, want 6", m.At(0, 2))
	}
	c := m.Clone()
	c.Set(0, 2, 0)
	if m.At(0, 2) != 6 {
		t.Fatal("Clone must not alias")
	}
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4, 2], [2, 5]] = L·Lt with L = [[2, 0], [1, 2]].
	a := NewDense(2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 5)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0}, {1, 2}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(l.At(i, j), want[i][j], 1e-12) {
				t.Errorf("L[%d][%d] = %g, want %g", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("indefinite matrix must not have a Cholesky factor")
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(20)
		// Build SPD as B·Bt + n·I.
		b := NewDense(n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += b.At(i, k) * b.At(j, k)
				}
				a.Set(i, j, s)
			}
			a.Add(i, i, float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEq(s, a.At(i, j), 1e-8*float64(n)) {
					t.Fatalf("trial %d: (L·Lt)[%d][%d] = %g, want %g", trial, i, j, s, a.At(i, j))
				}
			}
		}
	}
}

// TestCholeskyBlockBoundaries reconstructs A = L·Lᵀ at sizes around 64
// and up to 200, well past the (N+1)×(N+1) covariances the flow
// factors, and checks that a is left untouched and that L's upper
// triangle is zero.
func TestCholeskyBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{63, 64, 65, 133, 200} {
		b := NewDense(n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += b.At(i, k) * b.At(j, k)
				}
				a.Set(i, j, s)
				a.Set(j, i, s)
			}
			a.Add(i, i, float64(n))
		}
		orig := a.Clone()
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range a.Data {
			if a.Data[i] != orig.Data[i] {
				t.Fatalf("n=%d: Cholesky mutated its input at %d", n, i)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j > i && l.At(i, j) != 0 {
					t.Fatalf("n=%d: upper triangle L[%d][%d] = %g, want 0", n, i, j, l.At(i, j))
				}
				s := 0.0
				for k := 0; k <= min(i, j); k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEq(s, orig.At(i, j), 1e-7*float64(n)) {
					t.Fatalf("n=%d: (L·Lt)[%d][%d] = %g, want %g", n, i, j, s, orig.At(i, j))
				}
			}
		}
	}
}

// TestCholeskyIndefiniteBeyondFirstPanel pins the pivot-failure error
// to the correct column when the breakdown happens deep in the matrix.
func TestCholeskyIndefiniteBeyondFirstPanel(t *testing.T) {
	n := 104
	a := NewDense(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	bad := 71
	a.Set(bad, bad, -2)
	_, err := Cholesky(a)
	if err == nil {
		t.Fatal("indefinite matrix factored")
	}
	want := fmt.Sprintf("column %d", bad)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %s", err, want)
	}
}
