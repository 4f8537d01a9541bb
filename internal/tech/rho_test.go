package tech

import (
	"math"
	"math/rand"
	"slices"
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

// TestRhoLocalServesSharedValues: the goroutine-local memo returns
// bitwise the values of the table it fronts and accounts its traffic.
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
// fall back to direct evaluation without panicking.
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

// TestRhoSqDirectMatchesRhoSq pins RhoSq to the direct quantized
// formula — exp(√(round(d²·1e6)/1e6)·ln(ρ_u)/L_c) in quantization
// range, exp(√d²·ln(ρ_u)/L_c) out of it — math.Float64bits equal, and
// requires a RhoLocal memo to serve the same bits cold and warm. Every
// structured and dense covariance value rests on this one evaluation
// point; random separations, quantization half-points and their
// neighbours, 0, negative, huge, infinite and NaN inputs are covered.
func TestRhoSqDirectMatchesRhoSq(t *testing.T) {
	tch := FinFET12()
	tch.Mis.LcUm = 811.375
	rt := tch.RhoTable()
	coef := math.Log(tch.Mis.RhoU) / tch.Mis.LcUm
	direct := func(d2 float64) float64 {
		if q := d2 * 1e6; q >= 0 && q < 1<<62 {
			return math.Exp(math.Sqrt(float64(int64(q+0.5))/1e6) * coef)
		}
		return math.Exp(math.Sqrt(d2) * coef)
	}
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
	local := rt.Local()
	for pass, name := range []string{"cold", "warm"} {
		for _, d2 := range in {
			want := math.Float64bits(direct(d2))
			if got := math.Float64bits(rt.RhoSq(d2)); got != want {
				t.Fatalf("%s pass %d: RhoSq(%g) = %#x, direct formula %#x", name, pass, d2, got, want)
			}
			if got := math.Float64bits(local.RhoSq(d2)); got != want {
				t.Fatalf("%s pass %d: RhoLocal.RhoSq(%g) = %#x, direct formula %#x", name, pass, d2, got, want)
			}
		}
	}
}

// TestRhoKeyImpliesValue: arguments with equal Key get bit-equal RhoSq
// values, an out-of-range argument shares its key with no other, and
// over d² ≥ 0 the key never decreases as d² grows — the properties a
// spectrum build relies on when it evaluates one kernel row per
// distinct row of keys.
func TestRhoKeyImpliesValue(t *testing.T) {
	rt := FinFET12().RhoTable()
	rng := rand.New(rand.NewSource(23))
	limit := float64(1<<62) / rhoQuantInv
	in := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0.5 / rhoQuantInv,
		1.5 / rhoQuantInv, 2.5 / rhoQuantInv, limit, math.Nextafter(limit, 0),
		math.Nextafter(limit, math.Inf(1)), 1e300, math.MaxFloat64, math.Inf(1)}
	for i := 0; i < 3000; i++ {
		q := float64(rng.Int63n(1 << 24))
		// Neighbouring floats around quantization points and half-points.
		for _, v := range []float64{q / rhoQuantInv, (q + 0.5) / rhoQuantInv} {
			in = append(in, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
		}
	}
	slices.Sort(in)
	in = append(in, -1e-12, -1, math.Inf(-1), math.NaN())
	byKey := map[uint64]uint64{}
	outOfRange := map[uint64]bool{}
	prev := uint64(0)
	for i, d2 := range in {
		key, val := rt.Key(d2), math.Float64bits(rt.RhoSq(d2))
		if v, ok := byKey[key]; ok && v != val {
			t.Fatalf("Key(%g) = %#x is shared by a value %#x, RhoSq gives %#x", d2, key, v, val)
		}
		byKey[key] = val
		if _, ok := rhoKeyOf(d2); !ok {
			if outOfRange[key] || key < 1<<62 {
				t.Fatalf("out-of-range Key(%g) = %#x merges with another argument", d2, key)
			}
			outOfRange[key] = true
		}
		if d2 >= 0 {
			if i > 0 && key < prev {
				t.Fatalf("Key(%g) = %#x below the key %#x of a smaller argument", d2, key, prev)
			}
			prev = key
		}
	}
}
