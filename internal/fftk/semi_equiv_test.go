package fftk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The references below are the serial forms of the separable
// embedding's spectrum build and contraction: a serial two-for-one
// transform over the distinct kernel rows, expanded back to every
// column pair, and the packed serial contraction over the
// half-spectrum of two-for-one indicator transforms. They exist only
// to pin the grouped, parallel build and the ordered, blocked parallel
// contraction bit for bit; TestSemiQuadFormsOracle pins their
// accuracy.

// refKernelRows groups g's column pairs by their whole row of keys
// key(Δx² + (w·DY)²), w = 0…M/2, compared as rows (no sorting or
// neighbour argument), and numbers the groups by the smallest Δx² they
// hold. It returns each packed pair's group and each group's smallest
// Δx².
func refKernelRows(g SemiGrid, key func(d2 float64) uint64) (pairRow []int, rows []float64) {
	cols := len(g.ColX)
	half := torusDim(g.Rows)/2 + 1
	keyRow := func(x2 float64) string {
		keys := make([]uint64, half)
		for w := range keys {
			wr := float64(w) * g.DY
			keys[w] = key(x2 + wr*wr)
		}
		return fmt.Sprint(keys)
	}
	smallest := map[string]float64{}
	names := make([]string, cols*(cols+1)/2)
	for cj := 0; cj < cols; cj++ {
		for ci := 0; ci <= cj; ci++ {
			dx := g.ColX[ci] - g.ColX[cj]
			x2 := dx * dx
			k := keyRow(x2)
			if v, ok := smallest[k]; !ok || x2 < v {
				smallest[k] = x2
			}
			names[cj*(cj+1)/2+ci] = k
		}
	}
	for _, x2 := range smallest {
		rows = append(rows, x2)
	}
	slices.Sort(rows)
	pairRow = make([]int, len(names))
	for p, k := range names {
		pairRow[p] = slices.Index(rows, smallest[k])
	}
	return pairRow, rows
}

// refSemiSpectra transforms kernel rows 2p and 2p+1 (refKernelRows'
// numbering) as the real and imaginary parts of one length-M input,
// and returns the packed spectra for frequencies 0…M/2.
func refSemiSpectra(g SemiGrid, kernel func(d2 float64) float64, key func(d2 float64) uint64) [][]float64 {
	m := torusDim(g.Rows)
	plan, err := NewPlan(m)
	if err != nil {
		panic(err)
	}
	pairRow, rows := refKernelRows(g, key)
	spec := make([][]float64, m/2+1) // per frequency, per kernel row
	for f := range spec {
		spec[f] = make([]float64, len(rows))
	}
	row := func(k, s int) float64 {
		if k >= len(rows) {
			return 0
		}
		wr := float64(min(s, m-s)) * g.DY
		return kernel(rows[k] + wr*wr)
	}
	buf := make([]complex128, m)
	for k := 0; k < len(rows); k += 2 {
		for s := range buf {
			buf[s] = complex(row(k, s), row(k+1, s))
		}
		plan.Forward(buf)
		for f := range spec {
			spec[f][k] = real(buf[f])
			if k+1 < len(rows) {
				spec[f][k+1] = imag(buf[f])
			}
		}
	}
	lamT := make([][]float64, m/2+1)
	for f := range lamT {
		lamT[f] = make([]float64, len(pairRow))
		for p, k := range pairRow {
			lamT[f][p] = spec[f][k]
		}
	}
	return lamT
}

// refIndicators returns the half-spectra (f = 0…M/2) of the classes'
// column indicators, indexed j·C+c and nil where class j has no cell in
// column c. The indicators with cells are numbered in (class, column)
// order; indicators 2q and 2q+1 are transformed as the real and
// imaginary parts of one input and split by X[f] = (Z[f] +
// conj(Z[M−f]))/2 and X[f] = (Z[f] − conj(Z[M−f]))/(2i).
func refIndicators(M, R, C int, classes [][]int) [][]complex128 {
	plan, err := NewPlan(M)
	if err != nil {
		panic(err)
	}
	nc := len(classes)
	series := make([][]float64, nc*C)
	for j, cls := range classes {
		for _, idx := range cls {
			r, c := idx/C, idx%C
			if r < 0 || r >= R || c < 0 {
				panic(fmt.Sprintf("fftk: QuadForms cell index %d outside %dx%d", idx, R, C))
			}
			if series[j*C+c] == nil {
				series[j*C+c] = make([]float64, M)
			}
			series[j*C+c][r]++
		}
	}
	var present []int
	for i, v := range series {
		if v != nil {
			present = append(present, i)
		}
	}
	out := make([][]complex128, nc*C)
	buf := make([]complex128, M)
	for q := 0; q < len(present); q += 2 {
		for r := range buf {
			im := 0.0
			if q+1 < len(present) {
				im = series[present[q+1]][r]
			}
			buf[r] = complex(series[present[q]][r], im)
		}
		plan.Forward(buf)
		for h, i := range present[q:min(q+2, len(present))] {
			out[i] = make([]complex128, M/2+1)
			for f := range out[i] {
				z, zm := buf[f], buf[(M-f)%M]
				if h == 0 {
					out[i][f] = complex((real(z)+real(zm))/2, (imag(z)-imag(zm))/2)
				} else {
					out[i][f] = complex((imag(z)+imag(zm))/2, (real(zm)-real(z))/2)
				}
			}
		}
	}
	return out
}

// refQuadForms is the packed serial contraction over the given
// half-spectrum of an M-point torus: frequencies 1…M/2 ascending, the
// interior ones doubled, then the DC term.
func refQuadForms(lamT [][]float64, M, R, C int, classes [][]int) [][]float64 {
	nc := len(classes)
	spec := refIndicators(M, R, C, classes)

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

// equivKernel is a kernel with the key it is evaluated at.
type equivKernel struct {
	kernel func(d2 float64) float64
	key    func(d2 float64) uint64
}

// equivKernels are a smooth kernel and the long-range mismatch shape,
// each keyed by its argument's bits, and the long-range shape
// evaluated at d² rounded to 0.05 µm² as tech.RhoTable rounds it to
// 1e-6 µm², keyed by that quantum: coarse enough that rows of
// different Δx² share their keys on every test grid.
var equivKernels = map[string]equivKernel{
	"smooth":     {semiKernel, math.Float64bits},
	"long-range": {func(d2 float64) float64 { return 0.37 * math.Exp(-math.Sqrt(d2)/200) }, math.Float64bits},
	"quantized": {
		func(d2 float64) float64 { return 0.37 * math.Exp(-math.Sqrt(math.Round(d2*20)/20)/200) },
		func(d2 float64) uint64 { return uint64(math.Round(d2 * 20)) },
	},
}

// TestSemiSpectraMatchReference requires the grouped two-for-one
// build, at 1, 2 and 4 workers, to find exactly the reference's kernel
// rows and every stored cross-spectral entry (f = 0…M/2) to equal the
// serial reference's, compared with ==. The quantized kernel must
// merge rows of different Δx² on the last-bits grid.
func TestSemiSpectraMatchReference(t *testing.T) {
	for gname, g := range equivGrids() {
		for kname, k := range equivKernels {
			want := refSemiSpectra(g, k.kernel, k.key)
			_, rows := refKernelRows(g, k.key)
			_, distinct := refKernelRows(g, math.Float64bits)
			if len(rows) > len(distinct) || kname == "quantized" && gname == "last-bits" && len(rows) == len(distinct) {
				t.Fatalf("%s/%s: %d kernel rows for %d distinct Δx²", gname, kname, len(rows), len(distinct))
			}
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", gname, kname, workers)
				e, err := NewSemiEmbedding(g, k.kernel, k.key, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(e.lam) != len(want) {
					t.Fatalf("%s: %d frequencies, reference %d", name, len(e.lam), len(want))
				}
				if got := len(e.lam[0]); got != len(rows) {
					t.Fatalf("%s: %d kernel rows, reference %d", name, got, len(rows))
				}
				if got, want := e.KernelEvals, int64(len(rows)*len(e.lam)); got != want {
					t.Fatalf("%s: KernelEvals = %d, want %d", name, got, want)
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
		for kname, k := range equivKernels {
			e, err := NewSemiEmbedding(g, k.kernel, k.key, 1)
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
				want := refQuadForms(refSemiSpectra(g, k.kernel, k.key), torusDim(g.Rows), g.Rows, C, classes)
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
