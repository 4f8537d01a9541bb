// Semi-regular (separable) circulant embedding: uniform pitch along
// rows, arbitrary column positions. Routed layouts have exactly this
// shape — cell rows stay on the placement pitch while channel
// insertions of varying width push the columns off any uniform
// lattice — and a uniform grid is the special case of evenly spaced
// columns, so this one embedding carries every structured analysis.
// The covariance is block-Toeplitz over rows (the kernel depends on
// the row separation only through Δr·DY) with full, non-Toeplitz
// cols×cols blocks. Embedding the row axis alone in a circulant of
// length M ≥ 2·Rows−1 block-diagonalizes the operator into M
// cross-spectral cols×cols matrices S[f] = {λ_cc'[f]}. Every wrapped
// row kernel is real and even, so every S[f] is real and S[M−f] =
// S[f]: the embedding stores f = 0…M/2 only, and quadratic forms fold
// the mirror half into the interior frequencies. Quadratic forms then
// contract in O(M·(K·C² + K²·C)) and correlated sampling factors each
// distinct S[f] once and then costs O(M·C²) per draw — versus O(n²)
// per dense quadratic form and O(n³) for a dense unit-level Cholesky.
//
// Quadratic forms use the raw spectra and are exact to FFT roundoff
// unconditionally. Sampling needs every S[m] PSD; the min-wrap kink
// of the long-range mismatch kernel makes a band of them mildly
// indefinite (a few percent of k(0) in clamped mass, and padding only
// worsens the kink — as it does for the 2-D embedding). The sampler
// clamps the negative eigenvalues and gates on the EXACT covariance
// perturbation the clamp induces: the clamped parts N[m] are
// inverse-transformed back to row lags, where their oscillating
// contributions largely cancel — measured ~7e-4 relative on routed
// 12-bit arrays whose nuclear-mass bound (the 2-D embedding's gate)
// says 4e-2. Factorization tries Cholesky per frequency first and
// falls back to a Jacobi eigen-clamp on the indefinite ones.
package fftk

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"ccdac/internal/par"
)

// SemiGrid describes a separable lattice: Rows cells per column at
// uniform pitch DY (microns), columns at the arbitrary x positions
// ColX (microns, one per column).
type SemiGrid struct {
	Rows int
	DY   float64
	ColX []float64
}

// SemiEmbedding is the row-spectral form of one separable-lattice
// kernel. Construction (and QuadForms) is cheap; the sampling
// factorization is lazy — first CanSample/Sample pays it once.
type SemiEmbedding struct {
	g    SemiGrid
	cols int
	m    int // row-torus length, pow2 ≥ 2·Rows−1
	// S[f] for f = 0…m/2 (S[m−f] = S[f]) is stored by kernel row:
	// lam[f][sep[p]] is the packed entry p = cj(cj+1)/2 + ci (ci ≤ cj)
	// of S[f].
	lam  [][]float64 // per frequency 0…m/2: one entry per distinct row of keys
	sep  []int32     // packed pair → index of its kernel row in lam[f]
	plan *Plan
	k0   float64

	// KernelEvals counts kernel evaluations spent building the spectra.
	KernelEvals int64

	pool sync.Pool // *semiScratch for Sample

	sampleOnce sync.Once
	// fac holds one dense C×C factor per distinct frequency
	// d ∈ [0, m/2], scaled so F·Fᵀ = clamp(S[d])/m; frequency f uses
	// fac[min(f, m−f)]. lower[d] records that fac[d] came from
	// Cholesky, so its strict upper triangle is zero and the draw
	// skips it.
	fac   [][]float64
	lower []bool
	// SampleRelErr is the exact entrywise covariance error of the draw
	// relative to k(0): the largest in-lattice lag response of the
	// clamped spectral parts. Zero until the factorization has run.
	SampleRelErr float64
	canSample    bool
}

type semiScratch struct {
	field []complex128 // C column time-series of length M, len C*M
	xi    []float64    // normal draws: C real parts, then C imaginary
}

// NewSemiEmbedding builds the row-spectral embedding of kernel(d²) —
// d² in µm² — over g, running the key pass and the transforms on up
// to workers goroutines. key names the point kernel evaluates d² at:
// equal keys must imply bit-equal kernel values (math.Float64bits
// always qualifies), and one kernel row is built per distinct row of
// keys. kernel and key must be safe for concurrent calls.
// Construction only fails on degenerate arguments; whether the spectra
// support sampling is reported by CanSample.
func NewSemiEmbedding(g SemiGrid, kernel func(d2 float64) float64, key func(d2 float64) uint64, workers int) (*SemiEmbedding, error) {
	cols := len(g.ColX)
	if g.Rows < 1 || cols < 1 {
		return nil, fmt.Errorf("fftk: semi embedding %dx%d, want >= 1", g.Rows, cols)
	}
	if !(g.DY >= 0) {
		return nil, fmt.Errorf("fftk: semi embedding row pitch %g, want >= 0", g.DY)
	}
	k0 := kernel(0)
	if !(k0 > 0) || math.IsInf(k0, 0) || math.IsNaN(k0) {
		return nil, fmt.Errorf("fftk: kernel variance k(0) = %g, want finite > 0", k0)
	}

	m := torusDim(g.Rows)
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	e := &SemiEmbedding{
		g:    SemiGrid{Rows: g.Rows, DY: g.DY, ColX: append([]float64(nil), g.ColX...)},
		cols: cols,
		m:    m,
		plan: plan,
		k0:   k0,
	}
	// The row-direction kernel of a column pair, k_cc'(Δr) =
	// kernel(Δx² + (Δr·DY)²) wrapped onto the torus, depends on the
	// pair only through Δx², and through Δx² only by the row of keys
	// its arguments take: pairs whose rows of keys are equal share one
	// spectrum, built once. The wrap min(s, M−s) makes the kernel even
	// — so every spectrum is real and even in f — and s and M−s share
	// one evaluation per wrap distance.
	e.sep = make([]int32, cols*(cols+1)/2)
	index := make(map[uint64]int32, cols)
	var x2s []float64 // the distinct Δx²
	for cj := 0; cj < cols; cj++ {
		for ci := 0; ci <= cj; ci++ {
			dx := g.ColX[ci] - g.ColX[cj]
			x2 := dx * dx
			bits := math.Float64bits(x2)
			k, ok := index[bits]
			if !ok {
				k = int32(len(x2s))
				index[bits] = k
				x2s = append(x2s, x2)
			}
			e.sep[cj*(cj+1)/2+ci] = k
		}
	}
	half := m/2 + 1
	groupOf, rows := groupKeyRows(x2s, g.DY, half, key, workers)
	for p, k := range e.sep {
		e.sep[p] = groupOf[k]
	}
	e.lam = make([][]float64, half)
	for f := range e.lam {
		e.lam[f] = make([]float64, len(rows))
	}
	// Two real spectra come out of one complex transform: rows 2p and
	// 2p+1 go in as the real and the imaginary part of one input, and
	// since both spectra are real they come out as the real and the
	// imaginary part of its transform. An odd last row runs alone on a
	// zero imaginary part. The pairs' transforms are independent and
	// each writes only its own two columns of lam, so they run in
	// contiguous blocks, one set of buffers per block; every spectrum is
	// the serial one at any worker count. The transforms cannot fail,
	// so ForN has no error to report.
	pairs := (len(rows) + 1) / 2
	blocks := min(max(workers, 1), pairs)
	_ = par.ForN(workers, blocks, func(b int) error {
		re, im := make([]float64, half), make([]float64, half)
		buf := make([]complex128, m)
		row := func(vals []float64, x2 float64) {
			for w := range vals {
				wr := float64(w) * g.DY
				vals[w] = kernel(x2 + wr*wr)
			}
		}
		for p := b * pairs / blocks; p < (b+1)*pairs/blocks; p++ {
			k := 2 * p
			two := k+1 < len(rows)
			row(re, rows[k])
			if two {
				row(im, rows[k+1])
			} else {
				clear(im)
			}
			for s := range buf {
				w := min(s, m-s)
				buf[s] = complex(re[w], im[w])
			}
			plan.Forward(buf)
			for f, lam := range e.lam {
				lam[k] = real(buf[f])
				if two {
					lam[k+1] = imag(buf[f])
				}
			}
		}
		return nil
	})
	e.KernelEvals = int64(len(rows) * half)
	e.pool.New = func() any {
		return &semiScratch{
			field: make([]complex128, cols*m),
			xi:    make([]float64, 2*cols),
		}
	}
	return e, nil
}

// groupKeyRows groups the distinct separations x2s by their row of
// keys key(Δx² + (w·dy)²), w = 0…half−1: one kernel row serves each
// group, since equal keys give bit-equal kernel values. It returns each
// separation's group and, per group, the smallest Δx² in it; groups
// are numbered by ascending Δx².
//
// The separations are sorted first, and each row is compared only with
// the row before it. A key that, like tech.RhoTable's, never decreases
// as its argument grows makes that complete: rows equal at Δx² = a < b
// are equal at every Δx² between, so every group is a run of sorted
// neighbours. (With any other key the grouping is still sound, only
// possibly finer.) The comparisons run in contiguous blocks on up to
// workers goroutines, each keeping two rows of keys.
func groupKeyRows(x2s []float64, dy float64, half int, key func(d2 float64) uint64, workers int) (groupOf []int32, rows []float64) {
	n := len(x2s)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Every Δx² is a square, so ≥ +0 or NaN: its bits order it.
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Compare(math.Float64bits(x2s[a]), math.Float64bits(x2s[b]))
	})
	// same[i] reports that sorted separation i has the keys of i−1.
	same := make([]bool, n)
	keys := func(dst []uint64, x2 float64) {
		for w := range dst {
			wr := float64(w) * dy
			dst[w] = key(x2 + wr*wr)
		}
	}
	blocks := min(max(workers, 1), n)
	// The key rows cannot fail, so ForN has no error to report.
	_ = par.ForN(workers, blocks, func(b int) error {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		prev, cur := make([]uint64, half), make([]uint64, half)
		if lo > 0 {
			keys(prev, x2s[order[lo-1]])
		}
		for i := lo; i < hi; i++ {
			keys(cur, x2s[order[i]])
			same[i] = i > 0 && slices.Equal(prev, cur)
			prev, cur = cur, prev
		}
		return nil
	})
	groupOf = make([]int32, n)
	for i, k := range order {
		if !same[i] {
			rows = append(rows, x2s[k])
		}
		groupOf[k] = int32(len(rows) - 1)
	}
	return groupOf, rows
}

// QuadForms evaluates the full matrix of quadratic forms G[j][k] =
// 1_jᵀ C 1_k for the indicator vectors of the given classes, each a
// list of flat row-major cell indices r·Cols+c, on up to workers
// goroutines. The raw spectra make this exact to FFT roundoff even
// when some S[f] is indefinite.
//
// G = (1/M)·Σ_f Re(a_j[f]ᴴ·S[f]·a_k[f]) over all M frequencies, where
// a_j[f] is class j's column-wise spectral indicator. The indicators
// are real, so a_j[M−f] = conj(a_j[f]), and S[M−f] = S[f]: frequency
// M−f contributes what f does. The contraction therefore runs over
// f = 0…M/2 only, with weight 2 on the interior frequencies 0 < f <
// M/2, each of which stands for a mirror pair.
//
// Per frequency f the packed S[f] is expanded to a dense C×C matrix,
// and class j's spectral indicator a_j is nonzero only in the columns
// holding its cells, so y_j = S[f]·a_j sums over those columns alone,
// in ascending column order, with separate real and imaginary
// products (S is real). The skipped terms are exact ±0 added to sums
// that start at +0, which leaves every y_j[x] and every dot a_j·y_k
// bit-identical to the full product. The per-frequency dots are
// written by index and reduced serially in one fixed order — f = 1…M/2
// ascending, then f = 0 — so G is identical at any worker count.
func (e *SemiEmbedding) QuadForms(classes [][]int, workers int) [][]float64 {
	R, C, M := e.g.Rows, e.cols, e.m
	nc := len(classes)
	// slot[j*C+c] numbers class j's column-c indicator, in (class,
	// column) order, or is -1 when the class has no cell there.
	slot := make([]int32, nc*C)
	for i := range slot {
		slot[i] = -1
	}
	for j, cls := range classes {
		for _, idx := range cls {
			r, c := idx/C, idx%C
			if r < 0 || r >= R || c < 0 {
				panic(fmt.Sprintf("fftk: QuadForms cell index %d outside %dx%d", idx, R, C))
			}
			slot[j*C+c] = 0
		}
	}
	slots := int32(0)
	for i, s := range slot {
		if s == 0 {
			slot[i] = slots
			slots++
		}
	}
	// Two real indicators share one complex transform: indicator 2q
	// goes in as the real part of input q and 2q+1 as its imaginary
	// part. The transform Z of the pair splits as X_2q[f] = (Z[f] +
	// conj(Z[M−f]))/2 and X_2q+1[f] = (Z[f] − conj(Z[M−f]))/(2i); the
	// contraction reads both halves of it at f and M−f.
	pairs := int(slots+1) / 2
	ind := make([]complex128, pairs*M)
	for j, cls := range classes {
		for _, idx := range cls {
			r, c := idx/C, idx%C
			s := slot[j*C+c]
			if s%2 == 0 {
				ind[int(s/2)*M+r] += 1
			} else {
				ind[int(s/2)*M+r] += 1i
			}
		}
	}
	// cols[j] lists class j's non-empty columns in ascending order.
	cols := make([][]int, nc)
	for j := range cols {
		for c, s := range slot[j*C : j*C+C] {
			if s >= 0 {
				cols[j] = append(cols[j], c)
			}
		}
	}
	// The transforms and frequency blocks cannot fail, so ForN has no
	// error to report.
	_ = par.ForN(workers, pairs, func(q int) error {
		e.plan.Forward(ind[q*M : q*M+M])
		return nil
	})

	np := nc * (nc + 1) / 2
	half := len(e.lam)
	part := make([]float64, half*np) // per-frequency dots, pairs j ≤ k row-major
	blocks := min(max(workers, 1), half)
	_ = par.ForN(workers, blocks, func(b int) error {
		s := make([]float64, C*C)
		ar, ai := make([]float64, nc*C), make([]float64, nc*C)
		yr, yi := make([]float64, nc*C), make([]float64, nc*C)
		for f := b * half / blocks; f < (b+1)*half/blocks; f++ {
			e.expand(s, f)
			mf := (M - f) % M
			for j, cs := range cols {
				for _, c := range cs {
					i := slot[j*C+c]
					z, zm := ind[int(i/2)*M+f], ind[int(i/2)*M+mf]
					if i%2 == 0 {
						ar[j*C+c], ai[j*C+c] = (real(z)+real(zm))/2, (imag(z)-imag(zm))/2
					} else {
						ar[j*C+c], ai[j*C+c] = (imag(z)+imag(zm))/2, (real(zm)-real(z))/2
					}
				}
			}
			for j, cs := range cols {
				rowsTimes(yr[j*C:j*C+C], yi[j*C:j*C+C], s, ar[j*C:j*C+C], ai[j*C:j*C+C], cs)
			}
			p := part[f*np : f*np+np]
			i := 0
			for j, cs := range cols {
				aR, aI := ar[j*C:j*C+C], ai[j*C:j*C+C]
				for k := j; k < nc; k++ {
					yR, yI := yr[k*C:k*C+C], yi[k*C:k*C+C]
					dot := 0.0
					for _, c := range cs {
						dot += aR[c]*yR[c] + aI[c]*yI[c]
					}
					p[i] = dot
					i++
				}
			}
		}
		return nil
	})

	G := make([][]float64, nc)
	for j := range G {
		G[j] = make([]float64, nc)
	}
	// On the near-rank-one mismatch kernel the DC term outweighs every
	// other frequency's by orders of magnitude, so the others are summed
	// first, ascending from f = 1, and the DC term is added last: each
	// form then rounds once at its own magnitude instead of once per
	// frequency. Doubling a mirror pair's term is exact.
	for step := 1; step <= half; step++ {
		f := step % half
		weight := 1.0
		if f > 0 && 2*f < M {
			weight = 2
		}
		p := part[f*np : f*np+np]
		i := 0
		for j := 0; j < nc; j++ {
			for k := j; k < nc; k++ {
				G[j][k] += weight * p[i]
				i++
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

// rowsTimes sets y = s·a, real and imaginary parts apart, for the
// dense row-major C×C matrix s and a vector a that is zero outside the
// ascending columns cs. It runs four rows per pass over cs, each with
// its own accumulators, so every y[x] is summed in ascending column
// order exactly as a row at a time would sum it, while each a[c] is
// loaded once per four rows.
func rowsTimes(yR, yI, s, aR, aI []float64, cs []int) {
	C := len(yR)
	x := 0
	for ; x+4 <= C; x += 4 {
		r0, r1, r2, r3 := s[x*C:x*C+C], s[(x+1)*C:(x+1)*C+C], s[(x+2)*C:(x+2)*C+C], s[(x+3)*C:(x+3)*C+C]
		var re0, im0, re1, im1, re2, im2, re3, im3 float64
		for _, c := range cs {
			a, b := aR[c], aI[c]
			re0 += r0[c] * a
			im0 += r0[c] * b
			re1 += r1[c] * a
			im1 += r1[c] * b
			re2 += r2[c] * a
			im2 += r2[c] * b
			re3 += r3[c] * a
			im3 += r3[c] * b
		}
		yR[x], yI[x] = re0, im0
		yR[x+1], yI[x+1] = re1, im1
		yR[x+2], yI[x+2] = re2, im2
		yR[x+3], yI[x+3] = re3, im3
	}
	for ; x < C; x++ {
		row := s[x*C : x*C+C]
		re, im := 0.0, 0.0
		for _, c := range cs {
			re += row[c] * aR[c]
			im += row[c] * aI[c]
		}
		yR[x], yI[x] = re, im
	}
}

// expand writes S[f] into s as a dense row-major C×C matrix.
func (e *SemiEmbedding) expand(s []float64, f int) {
	C, lam := e.cols, e.lam[f]
	for cj := 0; cj < C; cj++ {
		base := cj * (cj + 1) / 2
		for ci, k := range e.sep[base : base+cj+1] {
			v := lam[k]
			s[ci*C+cj] = v
			s[cj*C+ci] = v
		}
	}
}

// CanSample reports whether the clamped factorization's covariance
// error stayed within sampleTol, running the one-time factorization
// serially if needed. QuadForms is sound either way.
func (e *SemiEmbedding) CanSample() bool { return e.Factorize(1) }

// Factorize is CanSample with the one-time factorization, if it has
// not run yet, spreading its independent per-frequency factorizations
// over up to workers goroutines. Each factor is computed and stored by
// frequency index, so the factors — and every later sample — are
// identical at any worker count.
func (e *SemiEmbedding) Factorize(workers int) bool {
	e.sampleOnce.Do(func() { e.factorize(workers) })
	return e.canSample
}

// factorize builds one scaled factor per distinct frequency —
// Cholesky when S[d] is positive definite (the common case), Jacobi
// eigen-clamp otherwise — then evaluates the gate: the clamped parts
// N[d], inverse-transformed over frequencies, give the EXACT
// entrywise covariance deviation of the clamped operator at every row
// lag; the largest one inside the lattice (|Δr| ≤ Rows−1, and the
// transform is even in the lag) is SampleRelErr. This is far tighter
// than the nuclear-mass bound: the indefinite band's contributions
// oscillate and mostly cancel at in-lattice lags.
func (e *SemiEmbedding) factorize(workers int) {
	C, M := e.cols, e.m
	e.fac = make([][]float64, M/2+1)
	e.lower = make([]bool, M/2+1)
	clamped := make([][]float64, M/2+1) // packed symmetric N[d], nil where PSD
	inv := 1 / math.Sqrt(float64(M))
	// The per-frequency work cannot fail, so ForN has no error to report.
	_ = par.ForN(workers, M/2+1, func(d int) error {
		s := make([]float64, C*C)
		e.expand(s, d)
		f, lower, nf := factorPSD(s, C, e.k0)
		for i := range f {
			f[i] *= inv
		}
		e.fac[d], e.lower[d], clamped[d] = f, lower, nf
		return nil
	})
	anyClamped := false
	for _, nf := range clamped {
		anyClamped = anyClamped || nf != nil
	}
	if !anyClamped {
		e.canSample = true
		return
	}
	buf := make([]complex128, M)
	worst := 0.0
	for cj := 0; cj < C; cj++ {
		for ci := 0; ci <= cj; ci++ {
			pij := cj*(cj+1)/2 + ci
			any := false
			for f := 0; f < M; f++ {
				if nf := clamped[min(f, M-f)]; nf != nil {
					buf[f] = complex(nf[pij], 0)
					any = true
				} else {
					buf[f] = 0
				}
			}
			if !any {
				continue
			}
			e.plan.Inverse(buf)
			for lag := 0; lag < e.g.Rows; lag++ {
				if err := math.Abs(real(buf[lag])); err > worst {
					worst = err
				}
			}
		}
	}
	e.SampleRelErr = worst / e.k0
	e.canSample = e.SampleRelErr <= sampleTol
}

// factorPSD returns F with F·Fᵀ = clamp(s) for the symmetric C×C
// matrix s (row-major, not modified logically — contents are
// consumed). Cholesky handles the definite case in O(C³/3) and
// reports lower = true: F is lower triangular. Indefinite or
// near-singular matrices take the Jacobi eigen-clamp, which also
// returns the clamped part N = Σ_{λ<0} (−λ)·v·vᵀ (packed symmetric,
// nil when nothing was clamped) so the caller can evaluate the exact
// perturbation clamp(s) − s = N induces.
func factorPSD(s []float64, n int, scale float64) (f []float64, lower bool, clampedPart []float64) {
	f = make([]float64, n*n)
	copy(f, s)
	if cholInPlace(f, n, scale) {
		return f, true, nil
	}
	vals, vecs := jacobiEig(append([]float64(nil), s...), n)
	var nf []float64
	for j := 0; j < n; j++ {
		v := vals[j]
		if v < 0 {
			if nf == nil {
				nf = make([]float64, n*(n+1)/2)
			}
			for cj := 0; cj < n; cj++ {
				base := cj * (cj + 1) / 2
				for ci := 0; ci <= cj; ci++ {
					nf[base+ci] += (-v) * vecs[ci*n+j] * vecs[cj*n+j]
				}
			}
			v = 0
		}
		root := math.Sqrt(v)
		for i := 0; i < n; i++ {
			f[i*n+j] = vecs[i*n+j] * root
		}
	}
	return f, false, nf
}

// cholInPlace attempts an in-place lower Cholesky of the row-major
// symmetric a, zeroing the strict upper triangle on success. It fails
// (returns false) on any pivot at or below a tiny fraction of scale,
// leaving indefinite and semidefinite matrices to the eigen path.
func cholInPlace(a []float64, n int, scale float64) bool {
	const pivotTol = 1e-14
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= pivotTol*scale {
			return false
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			v := a[i*n+j]
			for k := 0; k < j; k++ {
				v -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = v * inv
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			a[j*n+k] = 0
		}
	}
	return true
}

// jacobiEig diagonalizes the symmetric row-major n×n matrix a by
// cyclic Jacobi rotations: vals[j] is the j-th eigenvalue and
// vecs[i*n+j] the i-th component of its eigenvector. a is destroyed.
func jacobiEig(a []float64, n int) (vals, vecs []float64) {
	vecs = make([]float64, n*n)
	for i := 0; i < n; i++ {
		vecs[i*n+i] = 1
	}
	for sweep := 0; sweep < 30; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a[p*n+q] * a[p*n+q]
			}
		}
		diag := 0.0
		for p := 0; p < n; p++ {
			diag += a[p*n+p] * a[p*n+p]
		}
		if off <= 1e-30*(diag+off) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < n; i++ {
					aip, aiq := a[i*n+p], a[i*n+q]
					a[i*n+p] = c*aip - s*aiq
					a[i*n+q] = s*aip + c*aiq
				}
				for i := 0; i < n; i++ {
					api, aqi := a[p*n+i], a[q*n+i]
					a[p*n+i] = c*api - s*aqi
					a[q*n+i] = s*api + c*aqi
				}
				for i := 0; i < n; i++ {
					vip, viq := vecs[i*n+p], vecs[i*n+q]
					vecs[i*n+p] = c*vip - s*viq
					vecs[i*n+q] = s*vip + c*viq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i*n+i]
	}
	return vals, vecs
}

// Sample draws one zero-mean Gaussian field with covariance C into
// dst (row-major over the Rows×Cols lattice): per frequency the
// factor maps a complex-normal column vector into spectral space, one
// inverse-ordered forward transform per column brings it back, and
// the real part at the lattice cells carries the target covariance —
// the vector form of the scalar spectral draw. Exactly 2·M·Cols
// normal variates are consumed from rng in (frequency, column) order,
// so a fixed per-sample stream yields a byte-stable sample at any
// worker count. Callers must check CanSample first.
//
// A Cholesky factor's row i multiplies only its first i+1 entries:
// the skipped products are ±0 added to a sum that starts at +0, which
// leaves every sum bit-identical to the full row.
func (e *SemiEmbedding) Sample(dst []float64, rng *rand.Rand) {
	R, C, M := e.g.Rows, e.cols, e.m
	if len(dst) != R*C {
		panic(fmt.Sprintf("fftk: Sample length %d, want %d", len(dst), R*C))
	}
	e.Factorize(1)
	sc := e.pool.Get().(*semiScratch)
	defer e.pool.Put(sc)
	xr, xq := sc.xi[:C], sc.xi[C:2*C]
	for f := 0; f < M; f++ {
		for c := 0; c < C; c++ {
			xr[c] = rng.NormFloat64()
			xq[c] = rng.NormFloat64()
		}
		d := min(f, M-f)
		fm, lower := e.fac[d], e.lower[d]
		for i := 0; i < C; i++ {
			re, im := 0.0, 0.0
			row := fm[i*C : i*C+C]
			if lower {
				row = row[:i+1]
			}
			xr, xq := xr[:len(row)], xq[:len(row)]
			for j, fv := range row {
				re += fv * xr[j]
				im += fv * xq[j]
			}
			sc.field[i*M+f] = complex(re, im)
		}
	}
	for c := 0; c < C; c++ {
		col := sc.field[c*M : c*M+M]
		e.plan.Forward(col)
		for r := 0; r < R; r++ {
			dst[r*C+c] = real(col[r])
		}
	}
}
