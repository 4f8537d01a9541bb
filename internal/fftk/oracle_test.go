package fftk

import (
	"fmt"
	"math"
	"testing"

	"ccdac/internal/oracle"
	"ccdac/internal/tech"
)

// semiOracleValue returns the float64 kernel value the embedding's
// spectra transform for the cell pair (a, b) of g: k(Δx² + (|Δr|·DY)²)
// with Δx² and the lag distance rounded exactly as the spectrum build
// rounds them.
func semiOracleValue(g SemiGrid, kernel func(float64) float64) func(a, b int) float64 {
	C := len(g.ColX)
	return func(a, b int) float64 {
		dx := g.ColX[a%C] - g.ColX[b%C]
		w := a/C - b/C
		if w < 0 {
			w = -w
		}
		wr := float64(w) * g.DY
		return kernel(dx*dx + wr*wr)
	}
}

// TestSemiQuadFormsOracle measures QuadForms against the oracle on the
// FinFET12 mismatch kernel σᵤ²·ρᵤ^(d/L_c) over the lattices whose
// torus is smallest — one, two and three rows (M = 1, 4, 8), where
// the half-spectrum holds one, three and five frequencies — and a
// 16-row routed-like lattice, each with binary-weighted interleaved
// classes and uniform and channel-shifted columns. Every entry's
// relative error must stay within the pinned bound; the errors are
// logged for the accuracy table in CHANGES.md.
func TestSemiQuadFormsOracle(t *testing.T) {
	tch := tech.FinFET12()
	sigmaU2 := tch.SigmaU() * tch.SigmaU()
	kernel := func(d2 float64) float64 {
		return sigmaU2 * math.Pow(tch.Mis.RhoU, math.Sqrt(d2)/tch.Mis.LcUm)
	}
	// bound is the pinned worst relative entry error over all lattices.
	const bound = 2.5e-16
	worst := 0.0
	for _, rows := range []int{1, 2, 3, 16} {
		for _, shifted := range []bool{false, true} {
			const cols = 8
			g := SemiGrid{Rows: rows, DY: tch.Unit.H, ColX: make([]float64, cols)}
			x := 0.0
			for c := range g.ColX {
				g.ColX[c] = x
				x += tch.Unit.W
				if shifted && c%3 == 1 {
					x += 0.37 * float64(1+c%2)
				}
			}
			// Binary-weighted classes dealt round-robin from the highest
			// bit, so every class spreads over rows and columns.
			n := rows * cols
			bits := 1
			for 1<<bits <= n {
				bits++
			}
			classes := make([][]int, bits)
			for idx := 0; idx < n; idx++ {
				k := bits - 1 - idx%bits
				for k > 0 && len(classes[k]) >= 1<<(k-1) {
					k--
				}
				classes[k] = append(classes[k], idx)
			}
			e, err := NewSemiEmbedding(g, kernel, math.Float64bits, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := e.QuadForms(classes, 2)
			value := semiOracleValue(g, kernel)
			lw := 0.0
			for j := range classes {
				for k := range classes {
					lw = max(lw, oracle.RelErr(got[j][k], oracle.PairSum(classes[j], classes[k], value)))
				}
			}
			name := fmt.Sprintf("rows=%d/M=%d/shifted=%v", rows, e.m, shifted)
			t.Logf("%s: worst relative entry error %.3g", name, lw)
			if lw > bound {
				t.Errorf("%s: QuadForms entry error %.3g above the pinned %.3g", name, lw, bound)
			}
			worst = max(worst, lw)
		}
	}
	t.Logf("worst relative entry error %.3g (bound %.3g)", worst, bound)
}
