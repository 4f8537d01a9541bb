// Package dacmodel evaluates the circuit-level metrics of Sec. III:
// the charge-scaling DAC transfer function under capacitor
// nonidealities (Eq. 9), the 3σ mismatch-induced INL/DNL (Eqs. 7, 8,
// 10-14), and a Monte-Carlo variant used to cross-check the 3σ model.
package dacmodel

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ccdac/internal/linalg"
	"ccdac/internal/par"
	"ccdac/internal/variation"
)

// Parasitics carries the routing parasitics entering Eqs. 10-11.
// With the paper's nonoverlapped routing, the top-to-bottom-plate
// terms are negligible (Sec. IV-B1) and default to zero.
type Parasitics struct {
	// CTSfF is the total top-plate-to-substrate capacitance C^TS.
	CTSfF float64
	// CTBOnfF and CTBOfffF are the top-to-bottom-plate parasitics of
	// the switched-on and switched-off capacitor groups.
	CTBOnfF, CTBOfffF float64
}

// Result summarizes an INL/DNL sweep over all input codes.
type Result struct {
	// MaxAbsDNL and MaxAbsINL are the paper's |DNL| and |INL| in LSB.
	MaxAbsDNL, MaxAbsINL float64
	// WorstDNLCode and WorstINLCode are the codes attaining them. Codes
	// are compared in ascending order and a later one wins only when
	// strictly worse, so of exactly tied codes the smallest is reported.
	// The 3σ analysis evaluates DNL once per lowest-set-bit class j —
	// every code whose lowest set bit is j has the same σ_D and the same
	// systematic step — and reports a class by its first code, 2^(j−1).
	WorstDNLCode, WorstINLCode int
	// ThetaRad is the gradient angle of the underlying analysis.
	ThetaRad float64
}

// IdealOut returns the ideal ratiometric output V_OUT/V_REF of Eq. 2
// for the given input code.
func IdealOut(bits, code int) float64 {
	return float64(code) / float64(int(1)<<bits)
}

// codeSums returns S[i] = init + Σ_{k: D_k(i)} x[k] for every code i
// of an N-bit DAC (x indexed by capacitor, x[0] unused), summed in
// ascending k. It builds the table by the top-bit recurrence
// S[i] = S[i − 2^(k−1)] + x[k], k the highest set bit of i: S[i −
// 2^(k−1)] is the same ascending fold over i's lower bits, so each
// entry is bit-identical to a per-code loop over D_1..D_N at O(1)
// instead of O(N) per code. dst (len 2^N) is filled and returned.
func codeSums(dst, x []float64, init float64) []float64 {
	dst[0] = init
	for k, half := 1, 1; half < len(dst); k, half = k+1, half<<1 {
		xk := x[k]
		for j, v := range dst[:half] {
			dst[half+j] = v + xk
		}
	}
	return dst
}

// Nonlinearity runs the paper's 3σ INL/DNL analysis over all 2^N codes
// for one variation analysis (one gradient angle).
//
// The systematic (gradient) part perturbs Eq. 9 deterministically:
// DeltaC_ON = sum D_k DC_k^sys + C^TB_ON (Eq. 10) and DeltaC_T =
// sum DC_k^sys + C^TB_ON + C^TB_OFF + C^TS (Eq. 11). For the random
// part, the statistical summations of Eqs. 13-14 enter the *ratio*
// R(i) = (C_ON+ΔC_ON)/(C_T+ΔC_T); because ΔC_ON and ΔC_T are strongly
// correlated (C_ON ⊂ C_T), the 3σ worst case must be taken on the
// first-order ratio error
//
//	L(i) = (ΔC_ON(i) − R0(i)·ΔC_T) / C_T = Σ_k w_k(i) ΔC_k,
//	w_k(i) = (D_k(i) − R0(i))/C_T (k ≥ 1), w_0(i) = −R0(i)/C_T,
//
// giving Var L(i) = wᵀ Cov w with Cov from Eq. 6 — the same worst-case
// treatment as the chessboard paper [7] this work compares against.
// DNL uses the 3σ of L(i) − L(i−1), which correctly cancels the shared
// variation of adjacent codes.
func Nonlinearity(a *variation.Analysis, par Parasitics, vref float64) (*Result, error) {
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	return nonlinearity(a, newSigmaTables(a), par), nil
}

// sigmaTables holds the angle-independent half of the 3σ analysis for
// one (Bits, Cov, Counts, CuFF): sigma[i] = √(w(i)ᵀ Cov w(i)) for every
// code i, sigmaD[j] = √(Δw_jᵀ Cov Δw_j) for every lowest-set-bit class
// j = 1..N, C_T, and the nominal part of each code's INL deviation.
// Δw_j = w(i) − w(i−1) is the same for every code i whose lowest set
// bit is j: going from i−1 to i switches C_j on and C_1..C_{j−1} off,
// and leaves the higher bits alone. w(i) depends only on the code,
// Counts and CuFF, and Cov not on the gradient angle, so a theta sweep
// builds the tables once and each angle runs only the O(2^N)
// systematic pass.
type sigmaTables struct {
	bits   int
	cov    *linalg.Dense
	counts []int
	cuFF   float64
	cT     float64
	sigma  []float64 // per code
	sigmaD []float64 // per class j = 1..N; sigmaD[0] is unused
	// nom[i] = C_u·(m(i)·2^N − i·n_T)/2^N with m(i) = Σ_{k∈D(i)} n_k:
	// C_T·(C_ON(i)/C_T − i/2^N), from the exact integer count excess.
	nom []float64
}

// fits reports whether the tables were built for a's random part.
func (st *sigmaTables) fits(a *variation.Analysis) bool {
	return a.Bits == st.bits && a.Cov == st.cov && a.CuFF == st.cuFF && slices.Equal(a.Counts, st.counts)
}

// newSigmaTables builds the σ tables in O(2^N + N³), serially.
//
// Every weight vector is orthogonal to the counts vector n: Σ_k n_k·
// w_k(i) = (C_ON(i) − R0(i)·C_T)/(C_u·C_T) = 0. So w(i)ᵀ·Cov·w(i) =
// w(i)ᵀ·C̃·w(i) for C̃ = Cov − α·n·nᵀ and any α; α = 1ᵀ·Cov·1/n_T²
// removes the near-rank-one bulk that unit correlations close to 1 put
// into Cov, and with it the cancellation a direct evaluation suffers.
// With d(i) the 0/1 switch vector (d_0 = 0), C_T·w(i) = d(i) −
// R0(i)·1, so
//
//	C_T²·σ(i)² = Q(i) − 2·R0(i)·U(i) + R0(i)²·t,
//
// with Q(i) = d(i)ᵀ·C̃·d(i), U(i) = 1ᵀ·C̃·d(i) and t = 1ᵀ·C̃·1. Q
// follows the top-bit recurrence codeSums uses: with K the highest set
// bit of i and i' = i − 2^(K−1), Q(i) = Q(i') + 2·Σ_{k∈D(i')} C̃_kK +
// C̃_KK, where the middle sum is itself a code sum over the lower bits.
// U and R0(i) = C_ON(i)/C_T are code sums too.
//
// Q(i) grows with the capacitance switched on while σ(i) shrinks
// toward full scale, so codes with R0(i) > ½ are evaluated from the
// complement code ī = 2^N − 1 − i instead: C_T·w(i) = s·1 − d⁺(ī),
// with s = 1 − R0(i) and d⁺(ī) = d(ī) + e_0 the capacitors i leaves
// off, C_0 included, which gives
//
//	C_T²·σ(i)² = Q(ī) + 2·Z(ī) + C̃_00 − 2·s·(U(ī) + u_0) + s²·t,
//
// with Z(ī) = Σ_{k∈D(ī)} C̃_0k and u_0 = (C̃·1)_0. Each class's σ_D is
// one (N+1)-term quadratic form over C̃.
func newSigmaTables(a *variation.Analysis) *sigmaTables {
	n := a.Bits
	codes := 1 << n
	// Nominal capacitances from unit counts (chessboard doubling is
	// already folded into Counts; ratios are unchanged).
	cNom := make([]float64, n+1)
	cT, nT := 0.0, 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
		nT += float64(a.Counts[k])
	}
	st := &sigmaTables{
		bits:   n,
		cov:    a.Cov,
		counts: a.Counts,
		cuFF:   a.CuFF,
		cT:     cT,
		sigma:  make([]float64, codes),
		sigmaD: make([]float64, n+1),
	}
	count := make([]float64, n+1)
	for k := range count {
		count[k] = float64(a.Counts[k])
	}
	st.nom = codeSums(make([]float64, codes), count, 0)
	scale := float64(codes)
	for i, m := range st.nom {
		st.nom[i] = (m*scale - float64(i)*nT) * a.CuFF / scale
	}

	// C̃ = Cov − α·n·nᵀ, its row sums u = C̃·1 and total t = 1ᵀ·C̃·1.
	dim := n + 1
	sum := 0.0
	for _, v := range a.Cov.Data[:dim*dim] {
		sum += v
	}
	alpha := sum / (nT * nT)
	ct := make([]float64, dim*dim)
	u := make([]float64, dim)
	t := 0.0
	for j := 0; j < dim; j++ {
		for k := 0; k < dim; k++ {
			v := a.Cov.At(j, k) - alpha*float64(a.Counts[j])*float64(a.Counts[k])
			ct[j*dim+k] = v
			u[j] += v
		}
		t += u[j]
	}

	// q[i] = Q(i) by the top-bit recurrence; col holds C̃'s column K
	// and lower its code sums over the bits below K.
	q := make([]float64, codes)
	lower := make([]float64, codes/2)
	col := make([]float64, dim)
	for k, half := 1, 1; half < codes; k, half = k+1, half<<1 {
		for j := range col {
			col[j] = ct[j*dim+k]
		}
		codeSums(lower[:half], col, 0)
		ckk := ct[k*dim+k]
		for j, v := range q[:half] {
			q[half+j] = v + 2*lower[j] + ckk
		}
	}
	cOn := codeSums(make([]float64, codes), cNom, 0)
	ud := codeSums(make([]float64, codes), u, 0)       // U(i)
	z := codeSums(make([]float64, codes), ct[:dim], 0) // Z(i), over C̃'s row 0
	for i := range q {
		var v float64
		if 2*cOn[i] <= cT {
			r0 := cOn[i] / cT
			v = q[i] - 2*r0*ud[i] + r0*r0*t
		} else {
			c := codes - 1 - i
			s := (cOn[c] + cNom[0]) / cT
			v = q[c] + 2*z[c] + ct[0] - 2*s*(ud[c]+u[0]) + s*s*t
		}
		st.sigma[i] = math.Sqrt(math.Max(0, v)) / cT
	}

	// Class j: C_T·Δw_j = e_j − Σ_{1≤k<j} e_k − ΔR0_j·1, with ΔR0_j =
	// (n_j − Σ_{1≤k<j} n_k)·C_u/C_T taken from integer counts.
	x := make([]float64, dim)
	below := 0 // Σ_{1≤k<j} n_k
	for j := 1; j <= n; j++ {
		dr0 := float64(a.Counts[j]-below) * a.CuFF / cT
		for k := range x {
			x[k] = -dr0
			if k >= 1 && k < j {
				x[k]--
			}
		}
		x[j]++
		v := 0.0
		for r, xr := range x {
			row := ct[r*dim : r*dim+dim]
			s := 0.0
			for c, xc := range x {
				s += row[c] * xc
			}
			v += xr * s
		}
		st.sigmaD[j] = math.Sqrt(math.Max(0, v)) / cT
		below += a.Counts[j]
	}
	return st
}

// nonlinearity is the per-angle systematic pass of Nonlinearity over
// prebuilt σ tables: INL over every code, DNL once per lowest-set-bit
// class. Both systematic terms are formed as the small differences they
// are rather than as differences of two nearly equal ratios:
//
//   - R(i) − i/2^N = (nom(i) + ΔC_ON^sys(i) + C^TB_ON −
//     (i/2^N)·(ΔC_T^sys + C^TB_ON + C^TB_OFF + C^TS)) / D, with nom(i)
//     the tables' nominal part and D Eq. 9's perturbed denominator.
//   - Class j's step R(i) − R(i−1) is the same for every code in it —
//     the numerator gains C_j + ΔC_j^sys and loses C_k + ΔC_k^sys for
//     1 ≤ k < j — so it is formed once, from integer counts.
func nonlinearity(a *variation.Analysis, st *sigmaTables, par Parasitics) *Result {
	n := a.Bits
	codes := 1 << n
	dSys := make([]float64, n+1)
	sysT := 0.0
	for k := 0; k <= n; k++ {
		dSys[k] = a.DCSys(k)
		sysT += dSys[k]
	}
	rest := sysT + (par.CTBOnfF + par.CTBOfffF + par.CTSfF)
	den := st.cT + rest
	sysOn := codeSums(make([]float64, codes), dSys, 0)

	scale := float64(codes)
	lsb := 1 / scale // LSB in V/V_REF ratio units
	res := &Result{ThetaRad: a.ThetaRad}
	for i := 1; i < codes; i++ {
		x := float64(i) / scale
		dev := (st.nom[i] + sysOn[i] + par.CTBOnfF - x*rest) / den
		inl := (math.Abs(dev) + 3*st.sigma[i]) / lsb
		if inl > res.MaxAbsINL {
			res.MaxAbsINL, res.WorstINLCode = inl, i
		}
	}
	below, sysBelow := 0, 0.0 // Σ_{1≤k<j} n_k and Σ_{1≤k<j} ΔC_k^sys
	for j := 1; j <= n; j++ {
		step := (float64(a.Counts[j]-below)*a.CuFF + (dSys[j] - sysBelow)) / den
		dnl := (math.Abs(step-lsb) + 3*st.sigmaD[j]) / lsb
		if dnl > res.MaxAbsDNL {
			res.MaxAbsDNL, res.WorstDNLCode = dnl, 1<<(j-1)
		}
		below += a.Counts[j]
		sysBelow += dSys[j]
	}
	return res
}

// WorstOverTheta runs Nonlinearity for every analysis in the sweep and
// returns the worst-case result (max |INL|, with its |DNL| companion
// taken from the same worst angle by |INL|+|DNL|).
func WorstOverTheta(as []*variation.Analysis, parasitics Parasitics, vref float64) (*Result, error) {
	return WorstOverThetaContext(context.Background(), as, parasitics, vref)
}

// WorstOverThetaContext is WorstOverTheta under a context. The σ
// tables are built once per distinct (Cov, Counts, CuFF) — once for a
// SweepTheta sweep, whose angles share all three — serially, in
// O(2^N); the per-angle systematic passes then run on the context's
// worker budget, with cancellation checked before each angle. The worst-case
// reduction happens serially in angle order afterwards, so the
// selected angle — including the first-wins tie break — is identical
// at any worker count.
func WorstOverThetaContext(ctx context.Context, as []*variation.Analysis, parasitics Parasitics, vref float64) (*Result, error) {
	if len(as) == 0 {
		return nil, fmt.Errorf("dacmodel: empty theta sweep")
	}
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	workers := par.Workers(ctx)
	tabs := make([]*sigmaTables, len(as))
	var built []*sigmaTables
	for i, a := range as {
		for _, st := range built {
			if st.fits(a) {
				tabs[i] = st
				break
			}
		}
		if tabs[i] == nil {
			tabs[i] = newSigmaTables(a)
			built = append(built, tabs[i])
		}
	}
	rs := make([]*Result, len(as))
	if err := par.ForN(workers, len(as), func(i int) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dacmodel: theta step %d: %w", i, cerr)
		}
		rs[i] = nonlinearity(as[i], tabs[i], parasitics)
		return nil
	}); err != nil {
		return nil, err
	}
	worst := rs[0]
	for _, r := range rs[1:] {
		if r.MaxAbsINL+r.MaxAbsDNL > worst.MaxAbsINL+worst.MaxAbsDNL {
			worst = r
		}
	}
	return worst, nil
}

// MonteCarloNL evaluates INL/DNL for sampled capacitor shifts (from
// variation.Shared.MonteCarloRangeContext) and returns the per-sample
// results. Unlike the 3σ model it perturbs each sample
// deterministically (no 3σ margin).
// INL is raw (referenced to the ideal transfer), as in the paper.
func MonteCarloNL(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64) ([]Result, error) {
	return monteCarloNL(a, shifts, par, vref, false)
}

// MonteCarloNLEndpoint is MonteCarloNL with endpoint-corrected INL:
// each sample's transfer is referenced to the straight line through
// its own first and last codes, removing gain and offset errors the
// way production ADC/DAC linearity is measured. This exposes the
// placement-dependent mismatch that a shared C^TS gain error would
// otherwise mask.
func MonteCarloNLEndpoint(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64) ([]Result, error) {
	return monteCarloNL(a, shifts, par, vref, true)
}

func monteCarloNL(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64, endpoint bool) ([]Result, error) {
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	n := a.Bits
	codes := 1 << n
	cNom := make([]float64, n+1)
	cT := 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
	}
	vLSB := vref / float64(codes)
	results := make([]Result, len(shifts))
	// The nominal C_ON table is per analysis; the ΔC_ON table and the
	// transfer are rebuilt in place per sample, so a block allocates
	// the same handful of slices at any sample count or resolution.
	cOn := codeSums(make([]float64, codes), cNom, 0)
	dOn := make([]float64, codes)
	out := make([]float64, codes)
	for s, dc := range shifts {
		if len(dc) != n+1 {
			return nil, fmt.Errorf("dacmodel: sample %d has %d shifts, want %d", s, len(dc), n+1)
		}
		dCT := par.CTBOnfF + par.CTBOfffF + par.CTSfF
		for k := 0; k <= n; k++ {
			dCT += dc[k]
		}
		codeSums(dOn, dc, par.CTBOnfF)
		for i := range out {
			out[i] = vref * (cOn[i] + dOn[i]) / (cT + dCT)
		}
		// Reference: the ideal transfer (raw), or the straight line
		// through this sample's own endpoints (endpoint-corrected).
		lsb, v0 := vLSB, out[0]
		if endpoint {
			lsb = (out[codes-1] - v0) / float64(codes-1)
			if lsb <= 0 {
				return nil, fmt.Errorf("dacmodel: sample %d transfer not increasing end to end", s)
			}
		}
		res := Result{ThetaRad: a.ThetaRad}
		for i := 1; i < codes; i++ {
			var ref float64
			if endpoint {
				ref = v0 + float64(i)*lsb
			} else {
				ref = IdealOut(n, i) * vref
			}
			inl := (out[i] - ref) / lsb
			if abs := math.Abs(inl); abs > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = abs, i
			}
			dnl := (out[i] - out[i-1] - lsb) / lsb
			if abs := math.Abs(dnl); abs > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = abs, i
			}
		}
		results[s] = res
	}
	return results, nil
}

// Quantile returns the q-quantile (0..1) of the max-|INL| values of
// Monte-Carlo results, a convenience for comparing with the 3σ model.
func Quantile(rs []Result, q float64, inl bool) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(rs))
	for i, r := range rs {
		if inl {
			vals[i] = r.MaxAbsINL
		} else {
			vals[i] = r.MaxAbsDNL
		}
	}
	// Insertion sort: result sets are small.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	idx := int(q * float64(len(vals)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
