package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !almostEq(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// relErr is ‖x − want‖₂ / ‖want‖₂.
func relErr(x, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range want {
		d := x[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

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

func TestDenseMulVec(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{1, 1})
	if !vecAlmostEq(y, []float64{3, 7}, 1e-15) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	a := NewDense(2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{1, 3}, 1e-12) {
		t.Fatalf("solve = %v, want [1 3]", x)
	}

	// A well-conditioned 12×12 system with x* = (1, …, 12): diagonal
	// 12, off-diagonal entries 1/(1 + ((5i + 3j) mod 7)).
	const n = 12
	a = NewDense(n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		want[i] = float64(i + 1)
		for j := 0; j < n; j++ {
			if i == j {
				a.Set(i, j, n)
			} else {
				a.Set(i, j, 1/float64(1+(5*i+3*j)%7))
			}
		}
	}
	if f, err = LUFactor(a); err != nil {
		t.Fatal(err)
	}
	if x, err = f.Solve(a.MulVec(want)); err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, want); e > 1e-8 {
		t.Errorf("12×12 solve rel err = %g, want <= 1e-8", e)
	}
}

func TestLURequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal: fails without partial pivoting.
	a := NewDense(2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, []float64{3, 2}, 1e-12) {
		t.Fatalf("solve = %v, want [3 2]", x)
	}
	if !almostEq(f.Det(), -1, 1e-12) {
		t.Errorf("det = %g, want -1", f.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := LUFactor(a); err == nil {
		t.Fatal("singular matrix must not factor")
	}
}

func TestLUSolveRejectsBadLength(t *testing.T) {
	a := NewDense(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Fatal("short rhs must be rejected")
	}
}

func TestLURandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		a := NewDense(n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost keeps the random matrix comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		f, err := LUFactor(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := f.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !vecAlmostEq(got, want, 1e-8) {
			t.Fatalf("trial %d n=%d: round trip mismatch", trial, n)
		}
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

func TestSparseAccumulates(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 1, 2)
	s.Add(0, 1, 3)
	if got := s.At(0, 1); got != 5 {
		t.Fatalf("At = %g, want 5", got)
	}
	if got := s.At(1, 0); got != 0 {
		t.Fatalf("Add must not mirror, got %g", got)
	}
	s.AddSym(1, 2, 7)
	if s.At(1, 2) != 7 || s.At(2, 1) != 7 {
		t.Fatal("AddSym must mirror")
	}
	s.AddSym(2, 2, 1)
	if s.At(2, 2) != 1 {
		t.Fatal("AddSym on diagonal must stamp once")
	}
	stored := 0
	for _, r := range s.rows {
		stored += len(r)
	}
	if stored != 4 {
		t.Fatalf("%d stored entries, want 4", stored)
	}
}

func TestSparseAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add must panic")
		}
	}()
	NewSparse(2).Add(2, 0, 1)
}

func TestSparseMulVec(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 0, 2)
	s.Add(1, 1, 3)
	s.Add(2, 2, 4)
	s.AddSym(0, 2, -1)
	y := make([]float64, 3)
	s.MulVec([]float64{1, 2, 3}, y)
	if !vecAlmostEq(y, []float64{2 - 3, 6, 12 - 1}, 1e-15) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestCGMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(40)
		// Random SPD: Laplacian-like with strong diagonal.
		sp := NewSparse(n)
		de := NewDense(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					g := rng.Float64() + 0.1
					sp.AddSym(i, j, -g)
					sp.Add(i, i, g)
					sp.Add(j, j, g)
					de.Add(i, j, -g)
					de.Add(j, i, -g)
					de.Add(i, i, g)
					de.Add(j, j, g)
				}
			}
			sp.Add(i, i, 1)
			de.Add(i, i, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xCG, _, err := sp.SolveCG(b, 1e-12, 0)
		if err != nil {
			t.Fatalf("trial %d: CG: %v", trial, err)
		}
		f, err := LUFactor(de)
		if err != nil {
			t.Fatalf("trial %d: LU: %v", trial, err)
		}
		xLU, err := f.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !vecAlmostEq(xCG, xLU, 1e-7) {
			t.Fatalf("trial %d: CG and LU disagree", trial)
		}
	}

	// Known answer: a 32-node shifted 1-D Laplacian (diagonal 2.5,
	// off-diagonal −1; the sparse SPD shape the RC extraction produces)
	// with b = A·1, solved at the extraction's 1e-12 tolerance.
	const n = 32
	sp := NewSparse(n)
	ones := make([]float64, n)
	for i := 0; i < n; i++ {
		sp.Add(i, i, 2.5)
		if i+1 < n {
			sp.AddSym(i, i+1, -1)
		}
		ones[i] = 1
	}
	b := make([]float64, n)
	sp.MulVec(ones, b)
	x, st, err := sp.SolveCG(b, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(x, ones); e > 1e-8 {
		t.Errorf("Laplacian CG rel err = %g against x* = 1, want <= 1e-8", e)
	}
	if st.Iterations < 1 || st.Iterations > n || st.Residual > 1e-12 {
		t.Errorf("Laplacian CG stats %+v, want 1..%d iterations and residual <= 1e-12", st, n)
	}
}

func TestCGZeroRHS(t *testing.T) {
	s := NewSparse(4)
	for i := 0; i < 4; i++ {
		s.Add(i, i, 1)
	}
	x, _, err := s.SolveCG(make([]float64, 4), 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(x, make([]float64, 4), 0) {
		t.Fatal("zero rhs must give zero solution")
	}
}

func TestCGRejectsBadDiagonal(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 0, 1)
	// missing (1,1) diagonal
	if _, _, err := s.SolveCG([]float64{1, 1}, 1e-12, 0); err == nil {
		t.Fatal("zero diagonal must be rejected")
	}
}

func TestCGRejectsBadLength(t *testing.T) {
	s := NewSparse(2)
	s.Add(0, 0, 1)
	s.Add(1, 1, 1)
	if _, _, err := s.SolveCG([]float64{1}, 1e-12, 0); err == nil {
		t.Fatal("short rhs must be rejected")
	}
}

func TestDotAndNormProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// norm² == dot(a, a) and both are non-negative and finite inputs only.
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				raw[i] = 1
			}
		}
		n := norm2(raw)
		return almostEq(n*n, dot(raw, raw), 1e-6*(1+n*n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
