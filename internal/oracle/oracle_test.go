package oracle

import (
	"fmt"
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

// TestSampleNLByHand checks a 2-bit sample against closed forms:
// counts (1, 1, 2), C_u = 1, shifts (0, 0, δ), no parasitics, so the
// capacitors are (1, 1, 2 + δ) and V(i)/V_REF = (0, 1, 2 + δ, 3 + δ)/T
// with T = 4 + δ. Raw, |INL| = (δ, 2δ, δ)/T and |DNL| = (δ, 3δ, δ)/T;
// endpoint-corrected, |INL| = (δ, δ, 0)/(3 + δ) and |DNL| =
// (δ, 2δ, δ)/(3 + δ), whatever V_REF.
func TestSampleNLByHand(t *testing.T) {
	const delta = 0.25
	s := Sample{Bits: 2, Counts: []int{1, 1, 2}, CuFF: 1, Shifts: []float64{0, 0, delta}, VRef: 1.5}
	raw, endpoint := s.NL()
	tot, span := 4+delta, 3+delta
	for _, c := range []struct {
		name     string
		l        Linearity
		inl, dnl []float64
		max      [2]float64
	}{
		{"raw", raw, []float64{0, delta / tot, 2 * delta / tot, delta / tot},
			[]float64{0, delta / tot, 3 * delta / tot, delta / tot}, [2]float64{2 * delta / tot, 3 * delta / tot}},
		{"endpoint", endpoint, []float64{0, delta / span, delta / span, 0},
			[]float64{0, delta / span, 2 * delta / span, delta / span}, [2]float64{delta / span, 2 * delta / span}},
	} {
		check := func(what string, got *big.Float, want float64) {
			if v, _ := got.Float64(); math.Abs(v-want) > 1e-15 {
				t.Errorf("%s %s = %s, want %.17g", c.name, what, got.Text('g', 20), want)
			}
		}
		for i := range c.inl {
			check(fmt.Sprintf("INL(%d)", i), c.l.INL[i], c.inl[i])
			check(fmt.Sprintf("DNL(%d)", i), c.l.DNL[i], c.dnl[i])
		}
		check("max INL", c.l.MaxINL, c.max[0])
		check("max DNL", c.l.MaxDNL, c.max[1])
	}
}

// TestElmoreByHand checks Elmore on a three-stage ladder whose delays
// are integers of Ω·fF (60, 160 and 250), with one stage's node split
// by a zero-ohm short, and requires an error for a cycle (a resistor
// paralleling the short, or one closing a loop) and for an unreachable
// node.
func TestElmoreByHand(t *testing.T) {
	// 0 -10Ω- 1 -20Ω- 2 =short= 3 -30Ω- 4; C = 1, 0.5+1.5, 3 at 1, {2,3}, 4.
	edges := []Edge{{0, 1, 10}, {1, 2, 20}, {2, 3, 0}, {3, 4, 30}}
	caps := []float64{7, 1, 0.5, 1.5, 3}
	tau, err := Elmore(edges, caps, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ohmFF := range []int64{0, 60, 160, 160, 250} {
		want := newFloat().Quo(newFloat().SetInt64(ohmFF), newFloat().SetInt64(1e15))
		if d := newFloat().Sub(tau[i], want); d.Sign() != 0 && d.Quo(d, want).Abs(d).Cmp(big.NewFloat(1e-70)) > 0 {
			t.Errorf("τ(%d) = %s, want %s", i, tau[i].Text('g', 30), want.Text('g', 30))
		}
	}
	for _, extra := range []Edge{{3, 2, 1000}, {0, 4, 5}} {
		if _, err := Elmore(append(edges[:len(edges):len(edges)], extra), caps, 0); err == nil {
			t.Errorf("resistor %v closing a cycle was accepted", extra)
		}
	}
	if _, err := Elmore(edges, append(caps, 1), 0); err == nil {
		t.Error("a node with no resistor was accepted")
	}
}

// TestSettlingAndF3dB checks ln 2 against the independent series
// 2·atanh(1/3) = Σ 2/((2j+1)·3^(2j+1)), and Eqs. 15–16 at 6 bits:
// t_settle = 8·ln 2·τ and f_3dB = 1/(2·t_settle).
func TestSettlingAndF3dB(t *testing.T) {
	want, term := newFloat(), newFloat()
	pow := newFloat().SetInt64(3)
	for j := 0; j < 200; j++ {
		term.Quo(newFloat().SetInt64(2), newFloat().SetInt64(int64(2*j+1)))
		want.Add(want, term.Quo(term, pow))
		pow.Mul(pow, newFloat().SetInt64(9))
	}
	if d := newFloat().Sub(ln2, want); d.Quo(d, want).Abs(d).Cmp(big.NewFloat(1e-70)) > 0 {
		t.Fatalf("ln 2 = %s, want %s", ln2.Text('g', 80), want.Text('g', 80))
	}
	if e := RelErr(math.Ln2, ln2); e > 1.2e-16 {
		t.Errorf("ln 2 differs from math.Ln2 by %g", e)
	}
	tau := fromFloat(3e-12)
	ts := SettlingTime(6, tau)
	wantTS := newFloat().Mul(newFloat().Mul(ln2, newFloat().SetInt64(8)), tau)
	if ts.Cmp(wantTS) != 0 {
		t.Errorf("SettlingTime = %s, want %s", ts.Text('g', 30), wantTS.Text('g', 30))
	}
	one := newFloat().Mul(F3dB(6, tau), wantTS)
	one.Mul(one, newFloat().SetInt64(2))
	if d := one.Sub(one, newFloat().SetInt64(1)); d.Abs(d).Cmp(big.NewFloat(1e-70)) > 0 {
		t.Errorf("2·t_settle·f_3dB − 1 = %s", d.Text('g', 10))
	}
}
