package extract

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/oracle"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// TestElmoreMatchesOracle measures the extracted Elmore analysis
// against oracle.Elmore, which evaluates Eqs. 15–16's τ at Prec bits
// by its own traversal of the same resistors and capacitances, on
// 6-, 8-, 10- and 12-bit spiral, chessboard and block-chessboard
// arrays with every bit routed on 2 parallel wires. Every node's τ and
// each bit's TauSec, F3dB and SettlingTime must sit within its bound,
// just above the worst relative error measured when the test was
// written: 1.63e-15 (node τ), 1.09e-15 (TauSec), 8.6e-16 (F3dB) and
// 9.4e-16 (SettlingTime).
func TestElmoreMatchesOracle(t *testing.T) {
	const nodeBound, tauBound, f3dBBound, settleBound = 1.8e-15, 1.2e-15, 1e-15, 1e-15
	tch := tech.FinFET12()
	var worstNode, worstTau, worstF3dB, worstSettle float64
	for _, style := range []string{"spiral", "chessboard", "block-chessboard"} {
		for _, bits := range []int{6, 8, 10, 12} {
			var m *ccmatrix.Matrix
			var err error
			switch style {
			case "spiral":
				m, err = place.NewSpiral(bits)
			case "chessboard":
				m, err = place.NewChessboard(bits)
			default:
				m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
			}
			if err != nil {
				t.Fatal(err)
			}
			parOf := make([]int, bits+1)
			for i := range parOf {
				parOf[i] = 2
			}
			l, err := route.RouteContext(context.Background(), m, tch, parOf)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Extract(l)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range s.Bits {
				where := fmt.Sprintf("%s/%d bit %d", style, bits, b.Bit)
				var edges []oracle.Edge
				for _, r := range b.Net.Resistors() {
					edges = append(edges, oracle.Edge{A: r.A, B: r.B, Ohm: r.Ohm})
				}
				want, err := oracle.Elmore(edges, b.Net.Caps(), b.Root)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				got, err := b.Net.ElmoreTree(b.Root)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				for i := range got {
					worstNode = max(worstNode, oracle.RelErr(got[i], want[i]))
				}
				tau := new(big.Float)
				for _, c := range b.CellNodes {
					if want[c].Cmp(tau) > 0 {
						tau = want[c]
					}
				}
				worstTau = max(worstTau, oracle.RelErr(b.TauSec, tau))
				worstF3dB = max(worstF3dB, oracle.RelErr(F3dB(bits, b.TauSec), oracle.F3dB(bits, tau)))
				worstSettle = max(worstSettle, oracle.RelErr(SettlingTime(bits, b.TauSec), oracle.SettlingTime(bits, tau)))
			}
		}
	}
	t.Logf("relative error: node τ %.3g, TauSec %.3g, F3dB %.3g, SettlingTime %.3g", worstNode, worstTau, worstF3dB, worstSettle)
	for _, c := range []struct {
		name         string
		worst, bound float64
	}{
		{"node τ", worstNode, nodeBound}, {"TauSec", worstTau, tauBound},
		{"F3dB", worstF3dB, f3dBBound}, {"SettlingTime", worstSettle, settleBound},
	} {
		if c.worst > c.bound {
			t.Errorf("%s relative error %.3g exceeds %g", c.name, c.worst, c.bound)
		}
	}
}
