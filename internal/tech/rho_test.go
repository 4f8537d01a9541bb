package tech

import (
	"math"
	"math/rand"
	"testing"
)

// TestRhoMatchesPowReference checks the memoized exp-form evaluator
// against the paper's literal rho_u^(d/Lc) at grid-scale separations.
// The d² quantization (1e-6 um²) perturbs d by well under a nanometer
// at these distances, so the agreement bound is tight.
func TestRhoMatchesPowReference(t *testing.T) {
	tch := FinFET12()
	for _, d := range []float64{0, 0.064, 0.5, 1, 3.7, 12.5, 100, 1500} {
		got := tch.Rho(d)
		want := math.Pow(tch.Mis.RhoU, d/tch.Mis.LcUm)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Rho(%g) = %.15g, pow reference %.15g (|Δ|=%g)", d, got, want, math.Abs(got-want))
		}
	}
	if got := tch.Rho(0); got != 1 {
		t.Errorf("Rho(0) = %g, want exactly 1", got)
	}
}

// TestRhoTableSharedByParams: technologies with equal mismatch
// parameters — including by-value copies, as parameter sweeps make —
// share one memo table; changing (RhoU, LcUm) selects another.
func TestRhoTableSharedByParams(t *testing.T) {
	a, b := FinFET12(), FinFET12()
	if a.RhoTable() != b.RhoTable() {
		t.Error("equal-parameter technologies got distinct rho tables")
	}
	c := *a // the copy a sweep's ScaledTech makes
	if c.RhoTable() != a.RhoTable() {
		t.Error("by-value copy with unchanged parameters got a distinct table")
	}
	c.Mis.LcUm *= 2
	if c.RhoTable() == a.RhoTable() {
		t.Error("changed LcUm still mapped to the old table")
	}
	if got, want := c.Rho(100), math.Pow(c.Mis.RhoU, 100/c.Mis.LcUm); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled-Lc Rho(100) = %g, want %g", got, want)
	}
}

// TestRhoTableStats: a repeated distance is served from the memo.
func TestRhoTableStats(t *testing.T) {
	tch := FinFET12()
	tch.Mis.LcUm = 977.125 // unique parameters -> fresh table
	rt := tch.RhoTable()
	h0, m0 := rt.Stats()
	rt.Rho(1.25)
	rt.Rho(1.25)
	rt.Rho(1.25)
	h1, m1 := rt.Stats()
	if m1-m0 != 1 {
		t.Errorf("misses grew by %d, want 1 (first evaluation only)", m1-m0)
	}
	if h1-h0 != 2 {
		t.Errorf("hits grew by %d, want 2 (repeat evaluations)", h1-h0)
	}
}

// TestRhoLocalServesSharedValues: the goroutine-local view returns
// bitwise the values of the shared table and accounts its traffic.
func TestRhoLocalServesSharedValues(t *testing.T) {
	rt := FinFET12().RhoTable()
	local := rt.Local()
	ds := []float64{0.5, 0.5, 2.25, 0.5, 2.25}
	for _, d := range ds {
		if got, want := local.RhoSq(d*d), rt.Rho(d); got != want {
			t.Errorf("local RhoSq(%g²) = %.17g, shared %.17g", d, got, want)
		}
	}
	calls, fetches := local.Stats()
	if calls != int64(len(ds)) {
		t.Errorf("calls = %d, want %d", calls, len(ds))
	}
	if fetches != 2 {
		t.Errorf("fetches = %d, want 2 (two distinct distances)", fetches)
	}
}

// TestRhoSqPathologicalInputs: values outside the quantization range
// fall back to direct evaluation without panicking or poisoning the
// memo.
func TestRhoSqPathologicalInputs(t *testing.T) {
	rt := FinFET12().RhoTable()
	if got := rt.RhoSq(math.Inf(1)); got != 0 {
		t.Errorf("RhoSq(+Inf) = %g, want 0", got)
	}
	if got := rt.RhoSq(math.NaN()); !math.IsNaN(got) {
		t.Errorf("RhoSq(NaN) = %g, want NaN", got)
	}
	if got := rt.RhoSq(1e70); got != 0 {
		t.Errorf("RhoSq(1e70) = %g, want underflow to 0", got)
	}
	// And a sane value still works afterwards.
	if got, want := rt.Rho(1), math.Pow(0.9, 1.0/1000.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("Rho(1) after pathological inputs = %g, want %g", got, want)
	}
}

// TestRhoSqDirectMatchesRhoSq requires the memo-free evaluator to
// return exactly what the memoized RhoSq returns — math.Float64bits
// equal, cold and warm — on random separations, quantization
// half-points and their neighbours, 0, negative, huge, infinite and
// NaN inputs, and to leave the memo's counters and entries untouched.
func TestRhoSqDirectMatchesRhoSq(t *testing.T) {
	tch := FinFET12()
	tch.Mis.LcUm = 811.375 // unique parameters -> fresh table
	rt := tch.RhoTable()
	rng := rand.New(rand.NewSource(17))
	var in []float64
	for i := 0; i < 2000; i++ {
		in = append(in, rng.Float64()*4e4, rng.ExpFloat64())
		half := (float64(rng.Int63n(1<<40)) + 0.5) / rhoQuantInv
		in = append(in, half, math.Nextafter(half, 0), math.Nextafter(half, math.Inf(1)))
	}
	limit := float64(1<<62) / rhoQuantInv
	in = append(in, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5/rhoQuantInv,
		-1e-12, -1, -math.MaxFloat64, 1e300, math.MaxFloat64, limit,
		math.Nextafter(limit, 0), math.Nextafter(limit, math.Inf(1)),
		math.Inf(1), math.Inf(-1), math.NaN())
	h0, m0 := rt.Stats()
	e0 := rt.entries.Load()
	direct := make([]uint64, len(in))
	for i, d2 := range in {
		direct[i] = math.Float64bits(rt.RhoSqDirect(d2))
	}
	if h, m := rt.Stats(); h != h0 || m != m0 || rt.entries.Load() != e0 {
		t.Fatalf("RhoSqDirect touched the memo: stats (%d,%d) -> (%d,%d), entries %d -> %d",
			h0, m0, h, m, e0, rt.entries.Load())
	}
	for pass, name := range []string{"cold", "warm"} {
		for i, d2 := range in {
			if got := math.Float64bits(rt.RhoSq(d2)); got != direct[i] {
				t.Fatalf("%s pass %d: RhoSq(%g) = %#x, RhoSqDirect %#x", name, pass, d2, got, direct[i])
			}
		}
	}
}
