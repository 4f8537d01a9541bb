package variation

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/oracle"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// oracleLayout is one placement with the positioner an accuracy test
// measures it under.
type oracleLayout struct {
	name string
	m    *ccmatrix.Matrix
	pos  Positioner
}

// oracleLayouts returns spiral and chessboard arrays at 6, 8, 10 and
// 12 bits and a 12-bit block-chessboard array, each on the placement
// grid and routed.
func oracleLayouts(t *testing.T, tch *tech.Technology) []oracleLayout {
	t.Helper()
	var out []oracleLayout
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
			out = append(out,
				oracleLayout{fmt.Sprintf("%d-%s-grid", bits, style), m, GridPositioner(tch)},
				oracleLayout{fmt.Sprintf("%d-%s-routed", bits, style), m, routedLayout(t, m, tch)})
		}
	}
	return out
}

// oracleEntries lists the covariance entries (j ≤ k) the accuracy test
// checks: all of them up to 8 bits, and above that the pairs among
// C_0, C_1, C_{N−1} and C_N — the smallest and the largest.
func oracleEntries(bits int) [][2]int {
	var idx []int
	if bits <= 8 {
		for k := 0; k <= bits; k++ {
			idx = append(idx, k)
		}
	} else {
		idx = []int{0, 1, bits - 1, bits}
	}
	var out [][2]int
	for a, j := range idx {
		for _, k := range idx[a:] {
			out = append(out, [2]int{j, k})
		}
	}
	return out
}

// TestCovarianceEnginesOracle measures both covariance engines against
// the oracle on grid and routed layouts at 6–12 bits, each from its own
// float64 kernel values: QuadForms (covarianceSemi) transforms
// σᵤ²·ρ(Δx² + (|Δr|·DY)²) over the fitted lattice, and the dense pair
// sum (covariance) adds ρ(Δx² + Δy²) over positioned cells and scales
// by σᵤ² once. Each engine's worst relative entry error must stay
// within its pinned bound; the errors are logged for the accuracy
// table in CHANGES.md.
func TestCovarianceEnginesOracle(t *testing.T) {
	tch := tech.FinFET12()
	sigmaU2 := tch.SigmaU() * tch.SigmaU()
	rt := tch.RhoTable()
	// Pinned worst relative entry errors over every layout.
	const quadBound, denseBound = 7e-16, 4.5e-15
	var worstQuad, worstDense float64
	for _, lo := range oracleLayouts(t, tch) {
		if raceEnabled && lo.m.Bits > 8 {
			continue
		}
		g := gatherCells(lo.m, lo.pos)
		lat := fitLattice(g.flat, g.rows, g.cols)
		if !lat.ok {
			t.Fatalf("%s: layout does not fit the separable lattice", lo.name)
		}
		ctx := context.Background()
		quad, err := covarianceSemi(ctx, g, tch, lat.sg)
		if err != nil {
			t.Fatal(err)
		}
		dense, _, _, err := covariance(ctx, g, tch)
		if err != nil {
			t.Fatal(err)
		}
		// The engines' kernel values, memoized: a semi value depends
		// only on the column pair and the row distance.
		C, R := g.cols, g.rows
		semiVals := make([]float64, C*C*R)
		for i := range semiVals {
			semiVals[i] = math.NaN()
		}
		sg := lat.sg
		semiValue := func(a, b int) float64 {
			ca, cb := g.flat[a].c, g.flat[b].c
			w := ca.Row - cb.Row
			if w < 0 {
				w = -w
			}
			v := &semiVals[(ca.Col*C+cb.Col)*R+w]
			if math.IsNaN(*v) {
				dx := sg.ColX[ca.Col] - sg.ColX[cb.Col]
				wr := float64(w) * sg.DY
				*v = sigmaU2 * rt.RhoSq(dx*dx+wr*wr)
			}
			return *v
		}
		local := rt.Local()
		denseValue := func(a, b int) float64 {
			pa, pb := g.flat[a].p, g.flat[b].p
			dx, dy := pa.X-pb.X, pa.Y-pb.Y
			return local.RhoSq(dx*dx + dy*dy)
		}
		// cells[k] lists capacitor k's indices into g.flat.
		cells := make([][]int, len(g.caps))
		off := 0
		for k, cs := range g.caps {
			for i := range cs {
				cells[k] = append(cells[k], off+i)
			}
			off += len(cs)
		}
		var lq, ld float64
		for _, e := range oracleEntries(lo.m.Bits) {
			j, k := e[0], e[1]
			lq = max(lq, oracle.RelErr(quad.At(j, k), oracle.PairSum(cells[j], cells[k], semiValue)))
			want := oracle.PairSum(cells[j], cells[k], denseValue)
			want.Mul(want, new(big.Float).SetFloat64(sigmaU2))
			ld = max(ld, oracle.RelErr(dense.At(j, k), want))
		}
		t.Logf("%-22s QuadForms %.3g  dense %.3g", lo.name, lq, ld)
		if lq > quadBound {
			t.Errorf("%s: QuadForms entry error %.3g above the pinned %.3g", lo.name, lq, quadBound)
		}
		if ld > denseBound {
			t.Errorf("%s: dense pair-sum entry error %.3g above the pinned %.3g", lo.name, ld, denseBound)
		}
		worstQuad, worstDense = max(worstQuad, lq), max(worstDense, ld)
	}
	t.Logf("worst relative entry error: QuadForms %.3g (bound %.3g), dense %.3g (bound %.3g)",
		worstQuad, quadBound, worstDense, denseBound)
}

// TestGradientOracle measures Eq. 3's gradient table against the
// oracle on grid and routed layouts at 6–12 bits, at three angles:
// C*_k from cstarInto, and ΔC_k^sys = C*_k − n_k·C_u as Analysis.DCSys
// forms it from them. The oracle reads the same cell centres and the
// same float64 cos θ and sin θ. The paper's linear gradient is
// measured, and a bowl variant with the quadratic extension on.
// ΔC_k^sys is a difference of two values that agree to 5–20 digits, so
// its error is measured against the capacitance it shifts, n_k·C_u:
// relative to ΔC_k^sys itself it only measures the cancellation (on the
// 6-bit spiral grid at θ = π/4, C_2's exact shift is −2.2e-20 fF and
// float64 reads 0). Each worst error must stay within its pinned bound;
// the errors are logged for the accuracy table in CHANGES.md.
func TestGradientOracle(t *testing.T) {
	tch := tech.FinFET12()
	bowl := *tch
	bowl.Mis.QuadGradientPPMPerUm2 = 0.05
	// Pinned worst errors over every layout, angle and gradient.
	const cstarBound, dcBound = 3.2e-15, 3.2e-15
	var worstC, worstD float64
	for _, lo := range oracleLayouts(t, tch) {
		if raceEnabled && lo.m.Bits > 8 {
			continue
		}
		g := gatherCells(lo.m, lo.pos)
		caps := make([][]oracle.Point, len(g.caps))
		for k, cells := range g.caps {
			for _, cp := range cells {
				caps[k] = append(caps[k], oracle.Point{X: cp.p.X, Y: cp.p.Y})
			}
		}
		for _, tc := range []*tech.Technology{tch, &bowl} {
			gg := newGradGeom(g, tc)
			gamma, quad := tc.Mis.GradientPPMPerUm*1e-6, tc.Mis.QuadGradientPPMPerUm2*1e-6
			cu := tc.Unit.CfF
			var ec, ed float64
			for _, theta := range []float64{0.3, math.Pi / 4, 2.5} {
				a := &Analysis{CStar: make([]float64, len(g.caps)), Counts: g.counts, CuFF: cu}
				gg.cstarInto(a.CStar, theta)
				want := oracle.CStar(caps, gamma, quad, cu, math.Cos(theta), math.Sin(theta))
				for k, w := range want {
					ec = max(ec, oracle.RelErr(a.CStar[k], w))
					nominal := float64(g.counts[k]) * cu
					d := new(big.Float).SetPrec(oracle.Prec).SetFloat64(a.DCSys(k))
					d.Sub(d, w)
					d.Add(d, big.NewFloat(nominal)) // got − (C* − n_k·C_u)
					e, _ := d.Abs(d).Float64()
					ed = max(ed, e/nominal)
				}
			}
			name := lo.name
			if tc == &bowl {
				name += "-bowl"
			}
			t.Logf("%-31s C* %.3g  ΔC^sys %.3g", name, ec, ed)
			if ec > cstarBound {
				t.Errorf("%s: C* error %.3g above the pinned %.3g", name, ec, cstarBound)
			}
			if ed > dcBound {
				t.Errorf("%s: ΔC^sys error %.3g of n_k·C_u above the pinned %.3g", name, ed, dcBound)
			}
			worstC, worstD = max(worstC, ec), max(worstD, ed)
		}
	}
	t.Logf("worst error: C* %.3g relative (bound %.3g), ΔC^sys %.3g of n_k·C_u (bound %.3g)", worstC, cstarBound, worstD, dcBound)
}
