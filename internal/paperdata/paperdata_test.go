package paperdata

import (
	"math"
	"testing"
)

func TestCellsComplete(t *testing.T) {
	// 4 methods at 6, 8, 9 bits; 3 at 7 and 10 ([1] absent).
	counts := map[int]int{}
	for _, c := range Cells() {
		counts[c.Bits]++
	}
	want := map[int]int{6: 4, 7: 3, 8: 4, 9: 4, 10: 3}
	for bits, n := range want {
		if counts[bits] != n {
			t.Errorf("bits %d: %d cells, want %d", bits, counts[bits], n)
		}
	}
}

func TestFindCells(t *testing.T) {
	c, ok := Find(8, Spiral)
	if !ok {
		t.Fatal("8-bit spiral missing")
	}
	if c.F3dBMHz != 3962 || c.NV != 75 {
		t.Errorf("8-bit spiral cell corrupted: %+v", c)
	}
	if _, ok := Find(7, Lin); ok {
		t.Error("7-bit [1] must be absent")
	}
	if _, ok := Find(9, Lin); !ok {
		t.Error("9-bit [1] is present in the paper's tables")
	}
}

func TestPaperInternalOrderings(t *testing.T) {
	// The embedded data must itself exhibit the paper's claims; this
	// guards against transcription errors.
	for _, bits := range []int{6, 7, 8, 9, 10} {
		s, _ := Find(bits, Spiral)
		bc, _ := Find(bits, BC)
		cb, _ := Find(bits, Burcea)
		if !(s.F3dBMHz > bc.F3dBMHz && bc.F3dBMHz > cb.F3dBMHz) {
			t.Errorf("bits %d: paper f3dB ordering broken: %g/%g/%g",
				bits, s.F3dBMHz, bc.F3dBMHz, cb.F3dBMHz)
		}
		if !(s.NV <= bc.NV && bc.NV <= cb.NV) {
			t.Errorf("bits %d: paper via ordering broken", bits)
		}
		if s.RTotalkOhm >= cb.RTotalkOhm {
			t.Errorf("bits %d: paper R ordering broken", bits)
		}
	}
	// INL: chessboard at least as good as spiral for >= 8 bits.
	for _, bits := range []int{8, 9, 10} {
		s, _ := Find(bits, Spiral)
		cb, _ := Find(bits, Burcea)
		if cb.INL > s.INL {
			t.Errorf("bits %d: paper INL ordering broken", bits)
		}
	}
}

func TestSpearmanKnownValues(t *testing.T) {
	// Perfect monotone agreement.
	if rho := Spearman([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); math.Abs(rho-1) > 1e-12 {
		t.Errorf("rho = %g, want 1", rho)
	}
	// Perfect inversion.
	if rho := Spearman([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}); math.Abs(rho+1) > 1e-12 {
		t.Errorf("rho = %g, want -1", rho)
	}
	// Nonlinear monotone map still rho = 1.
	if rho := Spearman([]float64{1, 2, 3, 4}, []float64{1, 8, 27, 64}); math.Abs(rho-1) > 1e-12 {
		t.Errorf("monotone map rho = %g, want 1", rho)
	}
	// Ties get average ranks; correlation defined.
	rho := Spearman([]float64{1, 1, 2, 3}, []float64{2, 2, 3, 4})
	if math.IsNaN(rho) || rho < 0.9 {
		t.Errorf("tied rho = %g", rho)
	}
	// Degenerate inputs.
	if !math.IsNaN(Spearman([]float64{1, 2}, []float64{1, 2})) {
		t.Error("too-short input must be NaN")
	}
	if !math.IsNaN(Spearman([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("zero-variance input must be NaN")
	}
}

func TestCompareSelf(t *testing.T) {
	// Comparing the paper against itself gives rho = 1 everywhere.
	measured := map[string]Cell{}
	for _, c := range Cells() {
		measured[Key(c.Bits, c.Method)] = c
	}
	for _, corr := range Compare(measured) {
		if corr.N != len(Cells()) {
			t.Errorf("%s: N = %d, want %d", corr.Metric, corr.N, len(Cells()))
		}
		if math.Abs(corr.Rho-1) > 1e-12 {
			t.Errorf("%s: self-comparison rho = %g", corr.Metric, corr.Rho)
		}
	}
}

func TestCompareSkipsMissing(t *testing.T) {
	measured := map[string]Cell{}
	for _, c := range Cells() {
		if c.Bits == 8 || c.Bits == 6 {
			measured[Key(c.Bits, c.Method)] = c
		}
	}
	for _, corr := range Compare(measured) {
		if corr.N != 8 {
			t.Errorf("%s: N = %d, want 8", corr.Metric, corr.N)
		}
	}
}
