package oracle

import (
	"math"
	"math/big"
	"testing"
)

// TestSumIsExact requires Sum to carry every bit float64 addition
// drops: 0.1 added ten times, then 1e16 and −1e16, is exactly ten
// times float64(0.1); a million terms of both signs over 60 binary
// orders, which cross the carry cadence, sum to what a Prec-bit
// big.Float sums them to (exactly: their sum needs ~130 bits).
func TestSumIsExact(t *testing.T) {
	var s Sum
	f := 0.0
	for i := 0; i < 10; i++ {
		s.Add(0.1)
		f += 0.1
	}
	s.Add(1e16)
	s.Add(-1e16)
	want := newFloat().Mul(fromFloat(0.1), newFloat().SetInt64(10))
	if s.Value().Cmp(want) != 0 {
		t.Errorf("Sum = %s, want %s", s.Value().Text('g', 40), want.Text('g', 40))
	}
	if RelErr(f, want) == 0 {
		t.Error("float64 summation of 0.1 ten times came out exact; the test exercises nothing")
	}
	var many Sum
	want = newFloat()
	for i := 0; i < 1000000; i++ {
		v := math.Ldexp(float64(i%977+1)*(1+0x1p-52), i%61-30)
		if i%3 == 0 {
			v = -v
		}
		many.Add(v)
		want.Add(want, fromFloat(v))
	}
	if many.Value().Cmp(want) != 0 {
		t.Errorf("million-term Sum = %s, want %s", many.Value().Text('g', 40), want.Text('g', 40))
	}
	if got := RelErr(1, newFloat()); got != 1 {
		t.Errorf("RelErr against zero = %g, want the absolute error 1", got)
	}
}

// TestPairSum checks a 2×3 pair sum by hand.
func TestPairSum(t *testing.T) {
	got := PairSum([]int{1, 2}, []int{10, 20, 30}, func(a, b int) float64 { return float64(a * b) })
	if want := big.NewFloat(180); got.Cmp(want) != 0 {
		t.Errorf("PairSum = %s, want 180", got.Text('g', 20))
	}
}

// TestSigmaAndNLByHand checks a 1-bit DAC against closed forms:
// counts (1, 1), C_u = 1, Cov = diag(a, b). Code 1 has R0 = 1/2, so
// w = (−1/4, 1/4) and σ(1)² = (a + b)/16 = σ_D(1)²; with no shifts
// R(1) = 1/2 exactly, so INL = DNL = 3σ(1)·2.
func TestSigmaAndNLByHand(t *testing.T) {
	const a, b = 0.3, 0.5
	d := DAC{Bits: 1, Counts: []int{1, 1}, CuFF: 1, Cov: []float64{a, 0, 0, b}, DCSys: []float64{0, 0}}
	sigma, sigmaD := d.Sigma()
	want := math.Sqrt((a + b) / 16)
	for name, v := range map[string]*big.Float{"sigma(0)": sigma[0], "sigmaD(0)": sigmaD[0]} {
		if v.Sign() != 0 {
			t.Errorf("%s = %s, want 0", name, v.Text('g', 20))
		}
	}
	for name, v := range map[string]*big.Float{"sigma(1)": sigma[1], "sigmaD(1)": sigmaD[1]} {
		if e := RelErr(want, v); e > 1e-15 {
			t.Errorf("%s = %s, want %.17g", name, v.Text('g', 20), want)
		}
	}
	inl, dnl := d.NL(sigma, sigmaD)
	for name, v := range map[string]*big.Float{"INL": inl, "DNL": dnl} {
		if e := RelErr(6*want, v); e > 1e-15 {
			t.Errorf("%s = %s, want %.17g", name, v.Text('g', 20), 6*want)
		}
	}
}
