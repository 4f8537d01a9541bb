package fftk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The references below are the serial forms of the separable
// embedding's spectrum build and contraction: a serial two-for-one
// transform over the distinct column separations, expanded back to
// every column pair, and the packed serial contraction over the
// half-spectrum. They exist only to pin the deduplicated, parallel
// build and the ordered parallel contraction bit for bit;
// TestSemiQuadFormsOracle pins their accuracy.

// refSemiSpectra numbers the distinct column separations in
// first-appearance order, transforms separations 2p and 2p+1 as the
// real and imaginary parts of one length-M input, and returns the
// packed spectra for frequencies 0…M/2.
func refSemiSpectra(g SemiGrid, kernel func(d2 float64) float64) [][]float64 {
	cols := len(g.ColX)
	m := torusDim(g.Rows)
	plan, err := NewPlan(m)
	if err != nil {
		panic(err)
	}
	var dxs []float64
	sep := make([]int, cols*(cols+1)/2)
	for cj := 0; cj < cols; cj++ {
		for ci := 0; ci <= cj; ci++ {
			dx := g.ColX[ci] - g.ColX[cj]
			k := -1
			for i, d := range dxs {
				if d*d == dx*dx {
					k = i
					break
				}
			}
			if k < 0 {
				k = len(dxs)
				dxs = append(dxs, dx)
			}
			sep[cj*(cj+1)/2+ci] = k
		}
	}
	spec := make([][]float64, m/2+1) // per frequency, per separation
	for f := range spec {
		spec[f] = make([]float64, len(dxs))
	}
	row := func(k, s int) float64 {
		if k >= len(dxs) {
			return 0
		}
		wr := float64(min(s, m-s)) * g.DY
		return kernel(dxs[k]*dxs[k] + wr*wr)
	}
	buf := make([]complex128, m)
	for k := 0; k < len(dxs); k += 2 {
		for s := range buf {
			buf[s] = complex(row(k, s), row(k+1, s))
		}
		plan.Forward(buf)
		for f := range spec {
			spec[f][k] = real(buf[f])
			if k+1 < len(dxs) {
				spec[f][k+1] = imag(buf[f])
			}
		}
	}
	lamT := make([][]float64, m/2+1)
	for f := range lamT {
		lamT[f] = make([]float64, len(sep))
		for p, k := range sep {
			lamT[f][p] = spec[f][k]
		}
	}
	return lamT
}

// refQuadForms is the packed serial contraction over the given
// half-spectrum of an M-point torus: frequencies 1…M/2 ascending, the
// interior ones doubled, then the DC term.
func refQuadForms(lamT [][]float64, M, R, C int, classes [][]int) [][]float64 {
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
	half := len(lamT)
	for step := 1; step <= half; step++ {
		f := step % half
		weight := 1.0
		if f > 0 && 2*f < M {
			weight = 2
		}
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
				G[j][k] += weight * dot
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

// TestSemiSpectraMatchReference requires every stored cross-spectral
// entry (f = 0…M/2) of the deduplicated two-for-one build, at 1, 2 and
// 4 workers, to equal the serial reference's, compared with ==.
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
				want := refQuadForms(refSemiSpectra(g, kernel), torusDim(g.Rows), g.Rows, C, classes)
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
