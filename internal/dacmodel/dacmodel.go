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
	// WorstDNLCode and WorstINLCode are the codes attaining them.
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
	st, err := newSigmaTables(context.Background(), a, 1)
	if err != nil {
		return nil, err
	}
	return nonlinearity(a, st, par), nil
}

// sigmaTables holds the random-mismatch half of the 3σ analysis for
// one (Bits, Cov, Counts, CuFF): sigma[i] = √(w(i)ᵀ Cov w(i)) and, for
// i ≥ 1, sigmaD[i] = √((w(i) − w(i−1))ᵀ Cov (w(i) − w(i−1))), plus the
// nominal C_ON table and C_T the weights come from. w(i) depends only
// on the code, Counts and CuFF, and Cov not on the gradient angle, so
// a theta sweep builds the tables once and each angle runs only the
// O(2^N) systematic pass.
type sigmaTables struct {
	bits          int
	cov           *linalg.Dense
	counts        []int
	cuFF          float64
	cT            float64
	cOn           []float64
	sigma, sigmaD []float64
}

// fits reports whether the tables were built for a's random part.
func (st *sigmaTables) fits(a *variation.Analysis) bool {
	return a.Bits == st.bits && a.Cov == st.cov && a.CuFF == st.cuFF && slices.Equal(a.Counts, st.counts)
}

// sigmaChunk is the number of codes one table-building task covers.
const sigmaChunk = 256

// newSigmaTables builds the σ tables on up to workers goroutines. Each
// chunk of codes seeds its previous weights from the code before it
// and writes its entries by index, so every entry is bit-identical to
// a serial sweep; cancellation is checked per chunk.
func newSigmaTables(ctx context.Context, a *variation.Analysis, workers int) (*sigmaTables, error) {
	n := a.Bits
	codes := 1 << n
	// Nominal capacitances from unit counts (chessboard doubling is
	// already folded into Counts; ratios are unchanged).
	cNom := make([]float64, n+1)
	cT := 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
	}
	st := &sigmaTables{
		bits:   n,
		cov:    a.Cov,
		counts: a.Counts,
		cuFF:   a.CuFF,
		cT:     cT,
		cOn:    codeSums(make([]float64, codes), cNom, 0), // see codeSums
		sigma:  make([]float64, codes),
		sigmaD: make([]float64, codes),
	}
	chunks := (codes + sigmaChunk - 1) / sigmaChunk
	err := par.ForN(workers, chunks, func(c int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dacmodel: sigma tables: %w", err)
		}
		lo, hi := c*sigmaChunk, min((c+1)*sigmaChunk, codes)
		w := make([]float64, n+1)
		prevW := make([]float64, n+1)
		diff := make([]float64, n+1)
		if lo > 0 {
			st.weights(prevW, lo-1)
		}
		for i := lo; i < hi; i++ {
			st.weights(w, i)
			st.sigma[i] = math.Sqrt(quadForm(a.Cov, w))
			if i > 0 {
				for k := range diff {
					diff[k] = w[k] - prevW[k]
				}
				st.sigmaD[i] = math.Sqrt(quadForm(a.Cov, diff))
			}
			w, prevW = prevW, w
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// weights fills w with the first-order ratio-error weights w_k(i).
func (st *sigmaTables) weights(w []float64, i int) {
	r0 := st.cOn[i] / st.cT
	w[0] = -r0 / st.cT
	for k := 1; k < len(w); k++ {
		dk := 0.0
		if i&(1<<(k-1)) != 0 {
			dk = 1
		}
		w[k] = (dk - r0) / st.cT
	}
}

// quadForm returns max(0, wᵀ Cov w), summing (w_j·w_k)·Cov_jk for j
// then k ascending and skipping w_j == 0.
func quadForm(cov *linalg.Dense, w []float64) float64 {
	v := 0.0
	for j, wj := range w {
		if wj == 0 {
			continue
		}
		row := cov.Data[j*cov.N : j*cov.N+len(w)]
		for k, c := range row {
			v += wj * w[k] * c
		}
	}
	return math.Max(0, v)
}

// nonlinearity is the per-angle systematic pass of Nonlinearity over
// prebuilt σ tables.
func nonlinearity(a *variation.Analysis, st *sigmaTables, par Parasitics) *Result {
	n := a.Bits
	codes := 1 << n
	dSys := make([]float64, n+1)
	sysT := 0.0
	for k := 0; k <= n; k++ {
		dSys[k] = a.DCSys(k)
		sysT += dSys[k]
	}
	parsT := par.CTBOnfF + par.CTBOfffF + par.CTSfF
	sysOnT := codeSums(make([]float64, codes), dSys, 0)

	lsb := 1.0 / float64(codes) // LSB in V/V_REF ratio units
	res := &Result{ThetaRad: a.ThetaRad}
	prevSys := 0.0
	for i := 0; i < codes; i++ {
		rSys := (st.cOn[i] + sysOnT[i] + par.CTBOnfF) / (st.cT + sysT + parsT)
		if i > 0 {
			inl := (math.Abs(rSys-IdealOut(n, i)) + 3*st.sigma[i]) / lsb
			if inl > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = inl, i
			}
			dnl := (math.Abs(rSys-prevSys-lsb) + 3*st.sigmaD[i]) / lsb
			if dnl > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = dnl, i
			}
		}
		prevSys = rSys
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
// SweepTheta sweep, whose angles share all three — on the context's
// worker budget; the per-angle systematic passes then run on the same
// budget, with cancellation checked before each angle. The worst-case
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
			st, err := newSigmaTables(ctx, a, workers)
			if err != nil {
				return nil, err
			}
			built = append(built, st)
			tabs[i] = st
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
