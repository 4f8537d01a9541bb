// Package oracle is the accuracy reference for the paper's analysis
// tail. It evaluates the capacitor covariance of Eqs. 4–6, the 3σ
// INL/DNL of Eqs. 9–14, one Monte-Carlo sample's INL/DNL through Eq. 9,
// and the Elmore delay, settling time and 3dB frequency of Eqs. 15–16
// straight from their definitions in Prec-bit math/big arithmetic,
// taking the same float64 inputs an engine consumes — kernel values,
// the covariance matrix, unit counts, sampled shifts, the extracted
// resistors and capacitances — so the difference between an engine's
// result and the oracle's is that engine's own rounding error and
// nothing else.
//
// Bit-level goldens pin what an engine computes; this package pins
// how close that is to exact. A change that reorders an engine's sums
// may recapture its goldens only if the error measured here does not
// grow. Only tests import the package, the way they import keycheck.
package oracle

import (
	"errors"
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

// Sample is the float64 input of one Monte-Carlo draw evaluated
// through Eq. 9: what dacmodel's per-sample evaluation reads from a
// variation.Analysis, its parasitics, V_REF and one row of sampled
// capacitor shifts.
type Sample struct {
	// Bits is the resolution N; capacitors are C_0..C_N.
	Bits int
	// Counts[k] is C_k's unit-cell count and CuFF the unit capacitance.
	Counts []int
	CuFF   float64
	// Shifts[k] is C_k's sampled deviation ΔC_k in fF.
	Shifts []float64
	// CTBOn, CTBOff and CTS are the parasitics of Eqs. 10–11 in fF.
	CTBOn, CTBOff, CTS float64
	// VRef is the reference voltage V_REF.
	VRef float64
}

// Linearity is one sample's transfer measured against one reference
// line, in LSB: INL[i] = |INL(i)| and DNL[i] = |DNL(i)| for codes
// i = 1..2^N−1 (index 0 is zero), and their maxima over those codes.
type Linearity struct {
	INL, DNL       []*big.Float
	MaxINL, MaxDNL *big.Float
}

// NL evaluates the sample's output at every code i by Eq. 9,
//
//	V(i) = V_REF·(C^TB_ON + Σ_{k∈D(i)} C_k) / (Σ_k C_k + C^TB_ON + C^TB_OFF + C^TS),
//
// with C_k = n_k·C_u + ΔC_k, and returns its linearity twice: raw,
// against the ideal V_REF·i/2^N with LSB V_REF/2^N, and
// endpoint-corrected, against the straight line through V(0) and
// V(2^N−1) with LSB (V(2^N−1) − V(0))/(2^N−1). In both, INL(i) is
// V(i)'s distance from the line and DNL(i) = (V(i) − V(i−1))/LSB − 1.
func (s Sample) NL() (raw, endpoint Linearity) {
	n := s.Bits + 1
	codes := 1 << s.Bits
	cu := fromFloat(s.CuFF)
	c := make([]*big.Float, n)
	den := newFloat()
	for k := range c {
		c[k] = newFloat().Mul(cu, newFloat().SetInt64(int64(s.Counts[k])))
		c[k].Add(c[k], fromFloat(s.Shifts[k]))
		den.Add(den, c[k])
	}
	for _, v := range []float64{s.CTBOn, s.CTBOff, s.CTS} {
		den.Add(den, fromFloat(v))
	}
	vref := fromFloat(s.VRef)
	scale := newFloat().Quo(vref, den)
	// out[i] = V(i): the numerator C^TB_ON + Σ_{k∈D(i)} C_k is built
	// from code i − 2^(K−1), K the highest set bit of i, by one Prec-bit
	// addition per code, then scaled by V_REF over the denominator.
	out := make([]*big.Float, codes)
	out[0] = fromFloat(s.CTBOn)
	for k, half := 1, 1; half < codes; k, half = k+1, half<<1 {
		for j := 0; j < half; j++ {
			out[half+j] = newFloat().Add(out[j], c[k])
		}
	}
	for _, v := range out {
		v.Mul(v, scale)
	}
	raw = linearity(out, newFloat(), newFloat().SetMantExp(vref, -s.Bits))
	lsb := newFloat().Sub(out[codes-1], out[0])
	lsb.Quo(lsb, newFloat().SetInt64(int64(codes-1)))
	endpoint = linearity(out, out[0], lsb)
	return raw, endpoint
}

// linearity measures out against the line v0 + i·lsb through
// u(i) = (out[i] − v0)/lsb: INL(i) = u(i) − i and DNL(i) = u(i) −
// u(i−1) − 1.
func linearity(out []*big.Float, v0, lsb *big.Float) Linearity {
	l := Linearity{
		INL: make([]*big.Float, len(out)), DNL: make([]*big.Float, len(out)),
		MaxINL: newFloat(), MaxDNL: newFloat(),
	}
	l.INL[0], l.DNL[0] = newFloat(), newFloat()
	one := newFloat().SetInt64(1)
	inv := newFloat().Quo(one, lsb)
	prev, u, code := newFloat(), newFloat(), newFloat()
	prev.Sub(out[0], v0).Mul(prev, inv)
	for i := 1; i < len(out); i++ {
		u.Sub(out[i], v0).Mul(u, inv)
		l.INL[i] = newFloat().Sub(u, code.SetInt64(int64(i)))
		l.INL[i].Abs(l.INL[i])
		l.DNL[i] = newFloat().Sub(u, prev)
		l.DNL[i].Abs(l.DNL[i].Sub(l.DNL[i], one))
		if l.INL[i].Cmp(l.MaxINL) > 0 {
			l.MaxINL = l.INL[i]
		}
		if l.DNL[i].Cmp(l.MaxDNL) > 0 {
			l.MaxDNL = l.DNL[i]
		}
		prev, u = u, prev
	}
	return l
}

// Edge is one resistor of an RC network: nodes A and B joined by Ohm
// ohms. Zero ohms is an ideal short.
type Edge struct {
	A, B int
	Ohm  float64
}

// Elmore returns the Elmore delay in seconds from the driver node root
// to every node of an RC tree with resistors edges (ohms) and grounded
// capacitances capsFF (fF): the τ of Eqs. 15–16,
//
//	τ(i) = Σ_{e on the path root→i} R_e · (capacitance below e),
//
// each product divided by 10^15 to turn Ω·fF into seconds, every sum
// and product at Prec bits, over a breadth-first traversal from root.
// A zero-ohm resistor is an edge of zero resistance, which gives its
// ends the τ that merging them would; a resistor in parallel with one
// closes a cycle. It returns an error unless the resistors form a tree
// spanning every node.
func Elmore(edges []Edge, capsFF []float64, root int) ([]*big.Float, error) {
	n := len(capsFF)
	type arc struct{ to, edge int }
	adj := make([][]arc, n)
	for k, e := range edges {
		adj[e.A] = append(adj[e.A], arc{e.B, k})
		adj[e.B] = append(adj[e.B], arc{e.A, k})
	}
	// parent[i] and via[i] are i's parent and the resistor to it;
	// reaching a node a second time closes a cycle.
	parent, via := make([]int, n), make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[root], via[root] = root, -1
	order := []int{root}
	for q := 0; q < len(order); q++ {
		u := order[q]
		for _, a := range adj[u] {
			if a.edge == via[u] {
				continue
			}
			if parent[a.to] >= 0 {
				return nil, errors.New("oracle: resistors form a cycle")
			}
			parent[a.to], via[a.to] = u, a.edge
			order = append(order, a.to)
		}
	}
	if len(order) != n {
		return nil, errors.New("oracle: a node is unreachable from the driver")
	}
	// Capacitance below each node, leaves first, then the delays.
	down := make([]*big.Float, n)
	for i, c := range capsFF {
		down[i] = fromFloat(c)
	}
	for q := n - 1; q > 0; q-- {
		u := order[q]
		down[parent[u]].Add(down[parent[u]], down[u])
	}
	femto := newFloat().SetInt64(1e15)
	tau := make([]*big.Float, n)
	tau[root] = newFloat()
	for _, u := range order[1:] {
		step := newFloat().Mul(fromFloat(edges[via[u]].Ohm), down[u])
		step.Quo(step, femto)
		tau[u] = step.Add(step, tau[parent[u]])
	}
	return tau, nil
}

// ln2 is ln 2 at Prec bits: Σ_{k≥1} 1/(k·2^k), whose tail after K terms
// is below 2^−K.
var ln2 = func() *big.Float {
	s, t := newFloat(), newFloat()
	for k := 1; k <= Prec+16; k++ {
		t.Quo(t.SetInt64(1), newFloat().SetInt64(int64(k)))
		s.Add(s, t.SetMantExp(t, -k))
	}
	return s
}()

// SettlingTime returns Eq. 15's t_settle = ln(2^(N+2))·τ, the time an
// N-bit array's charging takes to come within 1/4 LSB.
func SettlingTime(bits int, tau *big.Float) *big.Float {
	t := newFloat().Mul(ln2, newFloat().SetInt64(int64(bits+2)))
	return t.Mul(t, tau)
}

// F3dB returns Eq. 16's f_3dB = 1/(2·t_settle).
func F3dB(bits int, tau *big.Float) *big.Float {
	t := SettlingTime(bits, tau)
	t.Mul(t, newFloat().SetInt64(2))
	return t.Quo(newFloat().SetInt64(1), t)
}
