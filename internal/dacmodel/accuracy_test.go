package dacmodel

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/oracle"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// namedAnalysis is one layout's analysis in an accuracy test, with
// the shared prefix that built it.
type namedAnalysis struct {
	name string
	a    *variation.Analysis
	sh   *variation.Shared
}

// oracleAnalyses returns analyses at θ = 0.3 of spiral and chessboard
// arrays at 6, 8, 10 and 12 bits and a 12-bit block-chessboard array,
// each on the placement grid and routed, with the covariance the flow
// builds.
func oracleAnalyses(t *testing.T) []namedAnalysis {
	t.Helper()
	tch := tech.FinFET12()
	var out []namedAnalysis
	for _, bits := range []int{6, 8, 10, 12} {
		for _, style := range []string{"spiral", "chessboard", "block-chessboard"} {
			var m *ccmatrix.Matrix
			var err error
			switch {
			case style == "spiral":
				m, err = place.NewSpiral(bits)
			case style == "chessboard":
				m, err = place.NewChessboard(bits)
			case bits == 12:
				m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
			default:
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			l, err := route.Route(m, tch, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"grid", "routed"} {
				pos := variation.GridPositioner(tch)
				if kind == "routed" {
					pos = l.CellCenter
				}
				sh, err := variation.NewSharedContext(context.Background(), m, pos, tch)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, namedAnalysis{fmt.Sprintf("%d-%s-%s", bits, style, kind), sh.Analysis(0.3), sh})
			}
		}
	}
	return out
}

// TestSigmaTablesOracle measures the 3σ analysis against the oracle on
// grid and routed layouts at 6–12 bits, from the analysis's own
// float64 Cov, Counts, CuFF and systematic shifts: the σ(i) table over
// every code, σ_D(i) over every code i ≥ 1, and Nonlinearity's max
// |INL| and |DNL|. Each error is relative and must stay within its
// pinned bound; the errors are logged for the accuracy table in
// CHANGES.md.
func TestSigmaTablesOracle(t *testing.T) {
	par := Parasitics{CTSfF: 0.37, CTBOnfF: 0.011, CTBOfffF: 0.007}
	// Pinned worst relative errors over every layout.
	const sigmaBound, sigmaDBound, inlBound, dnlBound = 2.5e-14, 4.5e-15, 1.2e-15, 2.2e-14
	var worst [4]float64
	for _, na := range oracleAnalyses(t) {
		name, a := na.name, na.a
		if raceEnabled && a.Bits > 8 {
			continue
		}
		st := newSigmaTables(a)
		d := oracle.DAC{Bits: a.Bits, Counts: a.Counts, CuFF: a.CuFF, Cov: a.Cov.Data,
			DCSys: make([]float64, a.Bits+1), CTBOn: par.CTBOnfF, CTBOff: par.CTBOfffF, CTS: par.CTSfF}
		for k := range d.DCSys {
			d.DCSys[k] = a.DCSys(k)
		}
		sigma, sigmaD := d.Sigma()
		var e [4]float64
		for i := 1; i < 1<<a.Bits; i++ {
			e[0] = max(e[0], oracle.RelErr(st.sigma[i], sigma[i]))
			e[1] = max(e[1], oracle.RelErr(tabSigmaD(st, i), sigmaD[i]))
		}
		r, err := Nonlinearity(a, par, 1)
		if err != nil {
			t.Fatal(err)
		}
		inl, dnl := d.NL(sigma, sigmaD)
		e[2], e[3] = oracle.RelErr(r.MaxAbsINL, inl), oracle.RelErr(r.MaxAbsDNL, dnl)
		t.Logf("%-20s σ %.3g  σ_D %.3g  INL %.3g  DNL %.3g", name, e[0], e[1], e[2], e[3])
		for i, b := range []float64{sigmaBound, sigmaDBound, inlBound, dnlBound} {
			if e[i] > b {
				t.Errorf("%s: %s error %.3g above the pinned %.3g", name, []string{"σ", "σ_D", "INL", "DNL"}[i], e[i], b)
			}
			worst[i] = max(worst[i], e[i])
		}
	}
	t.Logf("worst: σ %.3g  σ_D %.3g  INL %.3g  DNL %.3g", worst[0], worst[1], worst[2], worst[3])
}

// tabSigmaD returns the σ tables' σ_D for code i ≥ 1: its lowest set
// bit's class entry.
func tabSigmaD(st *sigmaTables, i int) float64 { return st.sigmaD[bits.TrailingZeros(uint(i))+1] }

// TestMonteCarloNLOracle measures the per-sample Monte-Carlo NL against
// the oracle's Eq. 9 transfer on grid and routed layouts at 6–12 bits:
// 12 draws per layout, each evaluated raw (MonteCarloNL) and
// endpoint-corrected (MonteCarloNLEndpoint). Each max |INL| and max
// |DNL| must lie within its pinned relative bound of the oracle's, and
// the oracle's value at each reported worst code must lie within the
// same bound of the oracle's maximum. The errors are logged for the
// accuracy table in CHANGES.md.
func TestMonteCarloNLOracle(t *testing.T) {
	const samples, vref = 12, 0.9
	par := Parasitics{CTSfF: 0.37, CTBOnfF: 0.011, CTBOfffF: 0.007}
	// Pinned worst relative errors over every layout and sample: raw
	// INL, raw DNL, endpoint INL, endpoint DNL.
	bounds := [4]float64{2e-11, 1.7e-10, 1.4e-10, 1.6e-10}
	names := [4]string{"raw INL", "raw DNL", "endpoint INL", "endpoint DNL"}
	var worst, worstGap [4]float64
	for _, na := range oracleAnalyses(t) {
		name, a := na.name, na.a
		if raceEnabled && a.Bits > 8 {
			continue
		}
		shifts, err := na.sh.MonteCarloRangeContext(context.Background(), a, 0, samples, 11)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := MonteCarloNL(a, shifts, par, vref)
		if err != nil {
			t.Fatal(err)
		}
		end, err := MonteCarloNLEndpoint(a, shifts, par, vref)
		if err != nil {
			t.Fatal(err)
		}
		var e [4]float64
		for s, dc := range shifts {
			want := oracle.Sample{Bits: a.Bits, Counts: a.Counts, CuFF: a.CuFF, Shifts: dc,
				CTBOn: par.CTBOnfF, CTBOff: par.CTBOfffF, CTS: par.CTSfF, VRef: vref}
			wRaw, wEnd := want.NL()
			for i, c := range []struct {
				got     float64
				code    int
				perCode []*big.Float
				max     *big.Float
			}{
				{raw[s].MaxAbsINL, raw[s].WorstINLCode, wRaw.INL, wRaw.MaxINL},
				{raw[s].MaxAbsDNL, raw[s].WorstDNLCode, wRaw.DNL, wRaw.MaxDNL},
				{end[s].MaxAbsINL, end[s].WorstINLCode, wEnd.INL, wEnd.MaxINL},
				{end[s].MaxAbsDNL, end[s].WorstDNLCode, wEnd.DNL, wEnd.MaxDNL},
			} {
				e[i] = max(e[i], oracle.RelErr(c.got, c.max))
				// How far the oracle's value at the reported worst code
				// falls short of the oracle's maximum, relative to it.
				d := new(big.Float).Sub(c.max, c.perCode[c.code])
				gap, _ := d.Quo(d, c.max).Float64()
				worstGap[i] = max(worstGap[i], gap)
				if gap > bounds[i] {
					t.Errorf("%s sample %d: %s worst code %d is %.3g below the oracle maximum, above the pinned %.3g",
						name, s, names[i], c.code, gap, bounds[i])
				}
			}
		}
		t.Logf("%-26s raw INL %.3g  DNL %.3g  endpoint INL %.3g  DNL %.3g", name, e[0], e[1], e[2], e[3])
		for i, b := range bounds {
			if e[i] > b {
				t.Errorf("%s: %s error %.3g above the pinned %.3g", name, names[i], e[i], b)
			}
			worst[i] = max(worst[i], e[i])
		}
	}
	t.Logf("worst: raw INL %.3g  DNL %.3g  endpoint INL %.3g  DNL %.3g", worst[0], worst[1], worst[2], worst[3])
	t.Logf("worst-code gap: raw INL %.3g  DNL %.3g  endpoint INL %.3g  DNL %.3g", worstGap[0], worstGap[1], worstGap[2], worstGap[3])
}
