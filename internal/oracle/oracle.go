// Package oracle is the accuracy reference for the paper's analysis
// tail. It evaluates the capacitor covariance of Eqs. 4–6 and the 3σ
// INL/DNL of Eqs. 9–14 straight from their definitions in Prec-bit
// math/big arithmetic, taking the same float64 inputs an engine
// consumes — kernel values, the covariance matrix, unit counts — so
// the difference between an engine's result and the oracle's is that
// engine's own summation error and nothing else.
//
// Bit-level goldens pin what an engine computes; this package pins
// how close that is to exact. A change that reorders an engine's sums
// may recapture its goldens only if the error measured here does not
// grow. Only tests import the package, the way they import keycheck.
package oracle

import (
	"fmt"
	"math"
	"math/big"
)

// Prec is the working precision, in mantissa bits, of every value the
// oracle returns.
const Prec = 256

func newFloat() *big.Float { return new(big.Float).SetPrec(Prec) }

func fromFloat(v float64) *big.Float { return newFloat().SetFloat64(v) }

// Sum accumulates float64 terms exactly. Each term is an integer
// mantissa times a power of two, so Add adds the mantissa into an
// int64 bin per binary exponent, and every thousand terms carries each
// bin's high bits 32 exponents up; no bin can overflow and no bit is
// dropped. Value forms the sum of the bins at Prec bits. Adding a term
// costs a few integer operations, so a test can sum the millions of
// kernel values of a 12-bit covariance entry exactly. The zero value
// is an empty sum.
type Sum struct {
	// bins[e] counts units of 2^(e−1075), the weight of the mantissa's
	// last bit at biased exponent e (e = 1 for subnormals).
	bins [2048 + 96]int64
	adds int
}

// Add adds v, which must be finite.
func (s *Sum) Add(v float64) {
	b := math.Float64bits(v)
	e := int(b>>52) & 0x7ff
	if e == 0x7ff {
		panic(fmt.Sprintf("oracle: Sum.Add(%g)", v))
	}
	m := int64(b & (1<<52 - 1))
	if e > 0 {
		m |= 1 << 52
	} else {
		e = 1
	}
	if b>>63 != 0 {
		m = -m
	}
	s.bins[e] += m
	// A carried bin holds under 2^32 in magnitude, and a thousand terms
	// under 2^53 each keep it under 2^63.
	if s.adds++; s.adds == 1000 {
		s.carry()
	}
}

// carry moves every bin's value, rounded to a multiple of 2^32, into
// the bin 32 exponents up, ascending so carries chain; each bin keeps
// a remainder in [−2^31, 2^31).
func (s *Sum) carry() {
	for e := 0; e+32 < len(s.bins); e++ {
		c := (s.bins[e] + 1<<31) >> 32
		s.bins[e] -= c << 32
		s.bins[e+32] += c
	}
	s.adds = 0
}

// Value returns the sum.
func (s *Sum) Value() *big.Float {
	total, term := newFloat(), newFloat()
	for e, n := range s.bins {
		if n != 0 {
			term.SetInt64(n)
			total.Add(total, term.SetMantExp(term, e-1075))
		}
	}
	return total
}

// PairSum returns Σ_{a∈as} Σ_{b∈bs} k(a, b): up to σ_u², Eq. 6's
// covariance entry between the capacitors whose unit cells are as and
// bs, with k the float64 correlation an engine reads for a cell pair.
func PairSum(as, bs []int, k func(a, b int) float64) *big.Float {
	s := new(Sum)
	for _, a := range as {
		for _, b := range bs {
			s.Add(k(a, b))
		}
	}
	return s.Value()
}

// RelErr returns |got − want| / |want| as a float64, or |got − want|
// when want is zero.
func RelErr(got float64, want *big.Float) float64 {
	d := fromFloat(got)
	d.Sub(d, want)
	d.Abs(d)
	if want.Sign() != 0 {
		d.Quo(d, newFloat().Abs(want))
	}
	v, _ := d.Float64()
	return v
}

// DAC is the float64 input of the 3σ analysis of one placement at one
// gradient angle: what dacmodel reads from a variation.Analysis and
// its parasitics.
type DAC struct {
	// Bits is the resolution N; capacitors are C_0..C_N.
	Bits int
	// Counts[k] is C_k's unit-cell count and CuFF the unit capacitance.
	Counts []int
	CuFF   float64
	// Cov is the (N+1)×(N+1) capacitor covariance, row-major, in fF².
	Cov []float64
	// DCSys[k] is C_k's systematic shift ΔC_k^sys (Eq. 12) in fF.
	DCSys []float64
	// CTBOn, CTBOff and CTS are the parasitics of Eqs. 10–11 in fF.
	CTBOn, CTBOff, CTS float64
}

// Sigma returns, for every code i, σ(i) = √(w(i)ᵀ·Cov·w(i)) with
// w_k(i) = (D_k(i) − R0(i))/C_T for k ≥ 1, w_0(i) = −R0(i)/C_T and
// R0(i) = C_ON(i)/C_T — the first-order ratio error of Eqs. 13–14 —
// and σ_D(i) = √((w(i) − w(i−1))ᵀ·Cov·(w(i) − w(i−1))) for i ≥ 1
// (sigmaD[0] is zero). A negative quadratic form, which round-off in
// Cov can produce, counts as zero.
func (d DAC) Sigma() (sigma, sigmaD []*big.Float) {
	n := d.Bits + 1
	codes := 1 << d.Bits
	// upper[j*n+k] holds Cov_jk for k = j and 2·Cov_jk for k > j, so a
	// quadratic form reads each symmetric pair once.
	upper := make([]*big.Float, n*n)
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			upper[j*n+k] = fromFloat(d.Cov[j*n+k])
			if k > j {
				upper[j*n+k].Mul(upper[j*n+k], newFloat().SetInt64(2))
			}
		}
	}
	cNom, cT := d.nominal()
	w, prev, diff := make([]*big.Float, n), make([]*big.Float, n), make([]*big.Float, n)
	for k := range w {
		w[k], prev[k], diff[k] = newFloat(), newFloat(), newFloat()
	}
	q, row, t := newFloat(), newFloat(), newFloat()
	quad := func(x []*big.Float) *big.Float {
		q.SetInt64(0)
		for j := range x {
			row.SetInt64(0)
			for k := j; k < n; k++ {
				row.Add(row, t.Mul(x[k], upper[j*n+k]))
			}
			q.Add(q, t.Mul(x[j], row))
		}
		if q.Sign() < 0 {
			q.SetInt64(0)
		}
		return newFloat().Sqrt(q)
	}
	sigma, sigmaD = make([]*big.Float, codes), make([]*big.Float, codes)
	cOn, r0 := newFloat(), newFloat()
	for i := 0; i < codes; i++ {
		cOn.SetInt64(0)
		for k := 1; k < n; k++ {
			if i&(1<<(k-1)) != 0 {
				cOn.Add(cOn, cNom[k])
			}
		}
		r0.Quo(cOn, cT)
		for k := range w {
			w[k].Neg(r0)
			if k > 0 && i&(1<<(k-1)) != 0 {
				w[k].Add(w[k], newFloat().SetInt64(1))
			}
			w[k].Quo(w[k], cT)
		}
		sigma[i] = quad(w)
		if i == 0 {
			sigmaD[i] = newFloat()
		} else {
			for k := range w {
				diff[k].Sub(w[k], prev[k])
			}
			sigmaD[i] = quad(diff)
		}
		w, prev = prev, w
	}
	return sigma, sigmaD
}

// nominal returns the nominal capacitances n_k·C_u and their total.
func (d DAC) nominal() ([]*big.Float, *big.Float) {
	cu := fromFloat(d.CuFF)
	cNom := make([]*big.Float, d.Bits+1)
	cT := newFloat()
	for k := range cNom {
		cNom[k] = newFloat().Mul(cu, newFloat().SetInt64(int64(d.Counts[k])))
		cT.Add(cT, cNom[k])
	}
	return cNom, cT
}

// NL returns the 3σ worst cases over codes 1..2^N−1, in LSB: max |INL|
// = max (|R(i) − i/2^N| + 3σ(i))·2^N and max |DNL| = max (|R(i) −
// R(i−1) − 2^−N| + 3σ_D(i))·2^N, where R(i) is Eq. 9's output ratio
// under the systematic shifts and parasitics (Eqs. 10–12) and sigma,
// sigmaD are Sigma's tables.
func (d DAC) NL(sigma, sigmaD []*big.Float) (inl, dnl *big.Float) {
	n := d.Bits + 1
	codes := 1 << d.Bits
	cNom, cT := d.nominal()
	den := newFloat().Set(cT)
	for _, v := range []float64{d.CTBOn, d.CTBOff, d.CTS} {
		den.Add(den, fromFloat(v))
	}
	for k := 0; k < n; k++ {
		den.Add(den, fromFloat(d.DCSys[k]))
	}
	lsb := newFloat().SetMantExp(newFloat().SetInt64(1), -d.Bits)
	inl, dnl = newFloat(), newFloat()
	prev, r, t, three := newFloat(), newFloat(), newFloat(), newFloat().SetInt64(3)
	for i := 0; i < codes; i++ {
		r.SetFloat64(d.CTBOn)
		for k := 1; k < n; k++ {
			if i&(1<<(k-1)) != 0 {
				r.Add(r, cNom[k])
				r.Add(r, fromFloat(d.DCSys[k]))
			}
		}
		r.Quo(r, den)
		if i > 0 {
			t.Mul(newFloat().SetInt64(int64(i)), lsb)
			t.Sub(r, t)
			t.Abs(t)
			t.Add(t, newFloat().Mul(three, sigma[i]))
			if t.Quo(t, lsb); t.Cmp(inl) > 0 {
				inl.Set(t)
			}
			t.Sub(r, prev)
			t.Sub(t, lsb)
			t.Abs(t)
			t.Add(t, newFloat().Mul(three, sigmaD[i]))
			if t.Quo(t, lsb); t.Cmp(dnl) > 0 {
				dnl.Set(t)
			}
		}
		prev.Set(r)
	}
	return inl, dnl
}
