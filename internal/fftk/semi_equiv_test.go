package fftk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The references below are verbatim copies of the separable
// embedding's original per-pair spectrum build and packed serial
// contraction. They exist only to pin the deduplicated build and the
// ordered parallel contraction bit for bit.

// refSemiSpectra runs one length-M FFT per column pair over the
// wrapped row-direction kernel and returns the packed spectra.
func refSemiSpectra(g SemiGrid, kernel func(d2 float64) float64) [][]float64 {
	cols := len(g.ColX)
	m := torusDim(g.Rows)
	plan, err := NewPlan(m)
	if err != nil {
		panic(err)
	}
	lamT := make([][]float64, m)
	for f := range lamT {
		lamT[f] = make([]float64, cols*(cols+1)/2)
	}
	buf := make([]complex128, m)
	for cj := 0; cj < cols; cj++ {
		for ci := 0; ci <= cj; ci++ {
			dx := g.ColX[ci] - g.ColX[cj]
			for s := 0; s < m; s++ {
				wr := float64(min(s, m-s)) * g.DY
				buf[s] = complex(kernel(dx*dx+wr*wr), 0)
			}
			plan.Forward(buf)
			pij := cj*(cj+1)/2 + ci
			for f := 0; f < m; f++ {
				lamT[f][pij] = real(buf[f])
			}
		}
	}
	return lamT
}

// refQuadForms is the packed serial contraction over the given
// spectra.
func refQuadForms(lamT [][]float64, R, C int, classes [][]int) [][]float64 {
	M := len(lamT)
	plan, err := NewPlan(M)
	if err != nil {
		panic(err)
	}
	nc := len(classes)
	spec := make([][]complex128, nc*C)
	for j, cls := range classes {
		for _, idx := range cls {
			r, c := idx/C, idx%C
			if r < 0 || r >= R || c < 0 {
				panic(fmt.Sprintf("fftk: QuadForms cell index %d outside %dx%d", idx, R, C))
			}
			if spec[j*C+c] == nil {
				spec[j*C+c] = make([]complex128, M)
			}
			spec[j*C+c][r] += 1
		}
	}
	for _, v := range spec {
		if v != nil {
			plan.Forward(v)
		}
	}

	G := make([][]float64, nc)
	for j := range G {
		G[j] = make([]float64, nc)
	}
	a := make([]complex128, nc*C)
	y := make([]complex128, nc*C)
	for f := 0; f < M; f++ {
		for i, v := range spec {
			if v == nil {
				a[i] = 0
			} else {
				a[i] = v[f]
			}
		}
		lam := lamT[f]
		for j := 0; j < nc; j++ {
			aj := a[j*C : j*C+C]
			yj := y[j*C : j*C+C]
			for i := range yj {
				yj[i] = 0
			}
			for cj := 0; cj < C; cj++ {
				base := cj * (cj + 1) / 2
				for ci := 0; ci < cj; ci++ {
					v := complex(lam[base+ci], 0)
					yj[ci] += v * aj[cj]
					yj[cj] += v * aj[ci]
				}
				yj[cj] += complex(lam[base+cj], 0) * aj[cj]
			}
		}
		for j := 0; j < nc; j++ {
			for k := j; k < nc; k++ {
				dot := 0.0
				for c := 0; c < C; c++ {
					av, yv := a[j*C+c], y[k*C+c]
					dot += real(av)*real(yv) + imag(av)*imag(yv)
				}
				G[j][k] += dot
			}
		}
	}
	inv := 1 / float64(M)
	for j := 0; j < nc; j++ {
		for k := j; k < nc; k++ {
			G[j][k] *= inv
			G[k][j] = G[j][k]
		}
	}
	return G
}

// equivGrids covers the shapes the deduplicated build must get right:
// repeated column separations, separations whose squares differ only
// in their last bits, the degenerate one-row torus (M = 1), two rows,
// and irregular routed-like columns (channel insertions of varying
// width on a cell pitch).
func equivGrids() map[string]SemiGrid {
	rng := rand.New(rand.NewSource(31))
	routed := make([]float64, 24)
	x := 0.0
	for c := range routed {
		routed[c] = x
		x += 1.3
		if rng.Intn(3) == 0 {
			x += 0.08 * float64(1+rng.Intn(4))
		}
	}
	return map[string]SemiGrid{
		"repeated":  {Rows: 9, DY: 1.1, ColX: []float64{0, 1, 2, 3, 5, 6, 7, 9, 10, 11}},
		"last-bits": {Rows: 6, DY: 0.7, ColX: []float64{0, 0.1, 0.2, 0.3, 1, 2, math.Nextafter(3, 4), 4, math.Nextafter(5, 4)}},
		"one-row":   {Rows: 1, DY: 0, ColX: []float64{0, 0.9, 2.1, 3, 3.9}},
		"two-rows":  {Rows: 2, DY: 1.3, ColX: []float64{0, 1.3, 2.6, 4.1, 5.4}},
		"routed":    {Rows: 16, DY: 1.1, ColX: routed},
	}
}

// equivKernels are a smooth kernel and the long-range mismatch shape.
var equivKernels = map[string]func(float64) float64{
	"smooth":     semiKernel,
	"long-range": func(d2 float64) float64 { return 0.37 * math.Exp(-math.Sqrt(d2)/200) },
}

// TestSemiSpectraMatchReference requires every cross-spectral entry of
// the deduplicated build, at 1, 2 and 4 workers, to equal the per-pair
// reference's, compared with ==.
func TestSemiSpectraMatchReference(t *testing.T) {
	for gname, g := range equivGrids() {
		for kname, kernel := range equivKernels {
			want := refSemiSpectra(g, kernel)
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", gname, kname, workers)
				e, err := NewSemiEmbedding(g, kernel, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(e.lam) != len(want) {
					t.Fatalf("%s: %d frequencies, reference %d", name, len(e.lam), len(want))
				}
				for f := range want {
					for p := range want[f] {
						if got := e.lam[f][e.sep[p]]; got != want[f][p] {
							t.Fatalf("%s: S[%d] packed %d = %.17g, reference %.17g", name, f, p, got, want[f][p])
						}
					}
				}
			}
		}
	}
}

// TestSemiQuadFormsMatchReference requires QuadForms at 1, 2 and 4
// workers to equal the packed serial contraction over the reference
// spectra, compared with ==, for random classes that leave some
// columns (and one class) empty and list some cells twice.
func TestSemiQuadFormsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for gname, g := range equivGrids() {
		C := len(g.ColX)
		n := g.Rows * C
		for kname, kernel := range equivKernels {
			e, err := NewSemiEmbedding(g, kernel, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, nc := range []int{1, 3, 7} {
				classes := make([][]int, nc)
				for idx := 0; idx < n; idx++ {
					// The last class (for nc > 1) stays empty and
					// class 0 skips the last column.
					j := rng.Intn(max(nc-1, 1))
					if j == 0 && idx%C == C-1 && nc > 1 {
						j = 1
					}
					classes[j] = append(classes[j], idx)
					if rng.Intn(17) == 0 {
						classes[j] = append(classes[j], idx)
					}
				}
				want := refQuadForms(refSemiSpectra(g, kernel), g.Rows, C, classes)
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/nc=%d/workers=%d", gname, kname, nc, workers)
					got := e.QuadForms(classes, workers)
					for j := range want {
						for k := range want[j] {
							if got[j][k] != want[j][k] {
								t.Fatalf("%s: G[%d][%d] = %.17g, reference %.17g", name, j, k, got[j][k], want[j][k])
							}
						}
					}
				}
			}
		}
	}
}
