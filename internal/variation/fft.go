// FFT-accelerated structured covariance (docs/PERFORMANCE.md,
// "Structured covariance"). The mismatch kernel is stationary —
// rho depends only on the separation — so on a regular placement grid
// the unit-cell covariance is block-Toeplitz with Toeplitz blocks and
// embeds in a circulant (internal/fftk). That turns the two hot dense
// objects into spectral ones:
//
//   - the capacitor-level covariance of Analyze/SweepTheta becomes
//     (N+1) quadratic forms 1_jᵀ C 1_k, evaluated with one FFT matvec
//     per capacitor indicator (two per complex transform via the
//     two-for-one packing) instead of ~n²/2 pair sums;
//   - the Monte-Carlo draw becomes spectral sampling in O(n log n)
//     with no O(n³) Cholesky and no n×n matrix at all.
//
// Selection is automatic, in two structured tiers: the 2-D circulant
// when the positioner output fits a uniform lattice, and the
// row-spectral separable embedding (fftk.SemiEmbedding) when only the
// rows are uniform — the shape of routed layouts, whose
// variable-width channels shift the columns. For sampling the
// engaged embedding's clamped spectrum must additionally stay within
// tolerance. Anything else falls back to the dense path, counted by
// ccdac_numeric_fft_fallback_total and surfaced through
// Analysis.Warnings, mirroring the CG→Cholesky ladder.
package variation

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ccdac/internal/fault"
	"ccdac/internal/fftk"
	"ccdac/internal/geom"
	"ccdac/internal/linalg"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/tech"
)

// mcScratch is one worker's reusable per-sample state: an RNG that is
// reseeded onto each sample's private stream (see mcStreamSeed) and a
// float buffer — the spectral sampler's lattice field or the dense
// sampler's normal draws. Reseeding a *rand.Rand yields exactly the
// stream rand.New(rand.NewSource(seed)) would, without allocating a
// fresh ~5 KB source per sample, so a million-sample run's steady
// state allocates only its results.
type mcScratch struct {
	rng *rand.Rand
	buf []float64
}

// mcScratchPool hands out per-worker scratch with a buffer of fixed
// length.
type mcScratchPool struct{ p sync.Pool }

func newMCScratchPool(n int) *mcScratchPool {
	sp := &mcScratchPool{}
	sp.p.New = func() any {
		return &mcScratch{rng: rand.New(rand.NewSource(0)), buf: make([]float64, n)}
	}
	return sp
}

// get returns scratch whose RNG is positioned at the start of sample
// s's stream.
func (sp *mcScratchPool) get(seed int64, s int) *mcScratch {
	sc := sp.p.Get().(*mcScratch)
	sc.rng.Seed(mcStreamSeed(seed, s))
	return sc
}

func (sp *mcScratchPool) put(sc *mcScratch) { sp.p.Put(sc) }

// FFTMode selects the covariance/sampling kernel family.
type FFTMode int

const (
	// FFTAuto (the default) takes the structured FFT path whenever the
	// geometry allows and falls back to dense otherwise.
	FFTAuto FFTMode = iota
	// FFTOff always uses the dense path — the pre-FFT behavior, kept
	// reachable for A/B verification and as an operational escape
	// hatch.
	FFTOff
)

type fftModeKey struct{}

// WithFFTMode returns a context selecting the covariance kernel
// family for variation analyses under it.
func WithFFTMode(ctx context.Context, m FFTMode) context.Context {
	return context.WithValue(ctx, fftModeKey{}, m)
}

// FFTModeOf reports the context's kernel-family selection, FFTAuto
// when unset.
func FFTModeOf(ctx context.Context) FFTMode {
	if v, ok := ctx.Value(fftModeKey{}).(FFTMode); ok {
		return v
	}
	return FFTAuto
}

// cellPt pairs a placement cell with its positioned center.
type cellPt struct {
	c geom.Cell
	p geom.Pt
}

// gridPitchTolUm is the absolute position tolerance (microns) for the
// uniform-lattice fit: far below any real pitch, far above the
// floating-point noise of positioner arithmetic.
const gridPitchTolUm = 1e-6

// fitRegularGrid fits positioned cells to a separable uniform lattice
// x = x0 + col·dx, y = y0 + row·dy over a rows×cols placement. It
// returns the lattice pitch when every cell fits within
// gridPitchTolUm; routed layouts with variable channel widths do not
// fit and keep the dense path.
func fitRegularGrid(pts []cellPt, rows, cols int) (fftk.Grid, bool) {
	if len(pts) == 0 || rows < 1 || cols < 1 {
		return fftk.Grid{}, false
	}
	base := pts[0]
	dx, dy := 0.0, 0.0
	haveDX, haveDY := false, false
	for _, cp := range pts[1:] {
		if !haveDX && cp.c.Col != base.c.Col {
			dx = (cp.p.X - base.p.X) / float64(cp.c.Col-base.c.Col)
			haveDX = true
		}
		if !haveDY && cp.c.Row != base.c.Row {
			dy = (cp.p.Y - base.p.Y) / float64(cp.c.Row-base.c.Row)
			haveDY = true
		}
		if haveDX && haveDY {
			break
		}
	}
	for _, cp := range pts {
		wantX := base.p.X + float64(cp.c.Col-base.c.Col)*dx
		wantY := base.p.Y + float64(cp.c.Row-base.c.Row)*dy
		if math.Abs(cp.p.X-wantX) > gridPitchTolUm || math.Abs(cp.p.Y-wantY) > gridPitchTolUm {
			return fftk.Grid{}, false
		}
	}
	return fftk.Grid{Rows: rows, Cols: cols, DX: math.Abs(dx), DY: math.Abs(dy)}, true
}

// fitSeparableGrid fits positioned cells to a separable lattice with
// a uniform row pitch but arbitrary column positions — the shape of
// routed layouts, whose variable-width channel insertions push the
// columns off any uniform pitch while the rows stay on the cell
// height. Requires a complete rows×cols assignment, every cell in a
// column sharing its x, every cell in a row sharing its y, and the
// row ys uniformly spaced, all within gridPitchTolUm. (The transposed
// shape — uniform columns, arbitrary rows — does not occur in this
// flow: channels are vertical.)
func fitSeparableGrid(pts []cellPt, rows, cols int) (fftk.SemiGrid, bool) {
	if rows < 1 || cols < 1 || len(pts) != rows*cols {
		return fftk.SemiGrid{}, false
	}
	colX := make([]float64, cols)
	rowY := make([]float64, rows)
	seenC := make([]bool, cols)
	seenR := make([]bool, rows)
	for _, cp := range pts {
		r, c := cp.c.Row, cp.c.Col
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return fftk.SemiGrid{}, false
		}
		if !seenC[c] {
			colX[c], seenC[c] = cp.p.X, true
		} else if math.Abs(cp.p.X-colX[c]) > gridPitchTolUm {
			return fftk.SemiGrid{}, false
		}
		if !seenR[r] {
			rowY[r], seenR[r] = cp.p.Y, true
		} else if math.Abs(cp.p.Y-rowY[r]) > gridPitchTolUm {
			return fftk.SemiGrid{}, false
		}
	}
	for _, ok := range seenC {
		if !ok {
			return fftk.SemiGrid{}, false
		}
	}
	for _, ok := range seenR {
		if !ok {
			return fftk.SemiGrid{}, false
		}
	}
	dy := 0.0
	if rows > 1 {
		dy = (rowY[rows-1] - rowY[0]) / float64(rows-1)
		for r, y := range rowY {
			if math.Abs(y-(rowY[0]+float64(r)*dy)) > gridPitchTolUm {
				return fftk.SemiGrid{}, false
			}
		}
	}
	return fftk.SemiGrid{Rows: rows, DY: math.Abs(dy), ColX: colX}, true
}

// mismatchEmbedding builds the circulant embedding of the unit-cell
// mismatch covariance sigma_u²·rho(d) over grid, evaluating the kernel
// through the same quantized rho memo as the dense path — the two
// paths therefore agree on every kernel value, not just to kernel
// precision. Returns the embedding plus the rho call/fetch counts.
func mismatchEmbedding(t *tech.Technology, grid fftk.Grid) (*fftk.Embedding, int64, int64, error) {
	sigmaU2 := t.SigmaU() * t.SigmaU()
	local := t.RhoTable().Local()
	emb, err := fftk.NewEmbedding(grid, func(d2 float64) float64 {
		return sigmaU2 * local.RhoSq(d2)
	}, fftk.EmbedOptions{})
	calls, fetches := local.Stats()
	if err != nil {
		return nil, calls, fetches, err
	}
	return emb, calls, fetches, nil
}

// covarianceAuto builds the capacitor-level covariance by a
// structured path when the mode and geometry allow — the 2-D
// circulant on a fully uniform lattice, the row-spectral separable
// path on routed layouts (uniform rows, channel-shifted columns) —
// and the dense path otherwise. A degradation (not an irregular
// layout — that is the dense path working as designed) is counted and
// returned as a warning for Result.Warnings.
func covarianceAuto(ctx context.Context, g *cellGeom, t *tech.Technology, mode FFTMode) (*linalg.Dense, []string, error) {
	if mode != FFTOff {
		var structured func() (*linalg.Dense, error)
		if grid, ok := fitRegularGrid(g.flat, g.rows, g.cols); ok {
			structured = func() (*linalg.Dense, error) { return covarianceFFT(ctx, g, t, grid) }
		} else if sg, ok := fitSeparableGrid(g.flat, g.rows, g.cols); ok {
			structured = func() (*linalg.Dense, error) { return covarianceSemi(ctx, g, t, sg) }
		}
		if structured != nil {
			if ferr := fault.Check(fault.StageFFT); ferr != nil {
				obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "analyze"}, 1)
				warn := fmt.Sprintf("analysis: structured covariance unavailable (%v); dense fallback", ferr)
				cov, err := covarianceDense(ctx, g, t)
				return cov, []string{warn}, err
			}
			cov, err := structured()
			if err == nil {
				obs.CountL(ctx, "ccdac_numeric_fft_structured_total", obs.Labels{"path": "analyze"}, 1)
				return cov, nil, nil
			}
			if ctx.Err() != nil {
				return nil, nil, err
			}
			obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "analyze"}, 1)
			warn := fmt.Sprintf("analysis: structured covariance unavailable (%v); dense fallback", err)
			cov, derr := covarianceDense(ctx, g, t)
			return cov, []string{warn}, derr
		}
	}
	cov, err := covarianceDense(ctx, g, t)
	return cov, nil, err
}

// covarianceDense is the pair-sum path with its rho-memo counters
// folded into the trace.
func covarianceDense(ctx context.Context, g *cellGeom, t *tech.Technology) (*linalg.Dense, error) {
	cov, calls, fetches, err := covariance(ctx, g, t)
	if err != nil {
		return nil, err
	}
	obs.Count(ctx, "ccdac_variation_rho_calls_total", calls)
	obs.Count(ctx, "ccdac_variation_rho_memo_hits_total", calls-fetches)
	return cov, nil
}

// covarianceFFT evaluates Cov[j][k] = 1_jᵀ C 1_k through the
// embedding: one matvec per capacitor indicator (paired two per
// complex transform), then per-capacitor gathers of the result field.
// Work is O((N/2)·M log M + N·n) instead of O(n²) pair sums. Columns
// are written by index and symmetrized upper-triangle-wins after the
// barrier, so the output is bit-identical at any worker count.
func covarianceFFT(ctx context.Context, g *cellGeom, t *tech.Technology, grid fftk.Grid) (*linalg.Dense, error) {
	emb, calls, fetches, err := mismatchEmbedding(t, grid)
	if err != nil {
		return nil, err
	}
	obs.Count(ctx, "ccdac_variation_rho_calls_total", calls)
	obs.Count(ctx, "ccdac_variation_rho_memo_hits_total", calls-fetches)
	bits := len(g.cells) - 1
	n := g.rows * g.cols
	cov := linalg.NewDense(bits + 1)
	err = par.ForN(par.Workers(ctx), (bits+2)/2, func(ti int) error {
		k1 := 2 * ti
		k2 := k1 + 1
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: covariance column %d: %w", k1, err)
		}
		x1 := make([]float64, n)
		for _, c := range g.rcs[k1] {
			x1[c.Row*g.cols+c.Col] = 1
		}
		y1 := make([]float64, n)
		var y2 []float64
		if k2 <= bits {
			x2 := make([]float64, n)
			for _, c := range g.rcs[k2] {
				x2[c.Row*g.cols+c.Col] = 1
			}
			y2 = make([]float64, n)
			emb.MulVec2(y1, y2, x1, x2)
		} else {
			emb.MulVec(y1, x1)
		}
		for j := 0; j <= bits; j++ {
			s1, s2 := 0.0, 0.0
			for _, c := range g.rcs[j] {
				idx := c.Row*g.cols + c.Col
				s1 += y1[idx]
				if y2 != nil {
					s2 += y2[idx]
				}
			}
			cov.Set(j, k1, s1)
			if y2 != nil {
				cov.Set(j, k2, s2)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Symmetrize, upper triangle winning: entries (j,k) and (k,j) come
	// from different indicator transforms and differ at roundoff.
	for j := 0; j <= bits; j++ {
		for k := j + 1; k <= bits; k++ {
			cov.Set(k, j, cov.At(j, k))
		}
	}
	return cov, nil
}

// mismatchSemiEmbedding is the separable-lattice analog of
// mismatchEmbedding. The embedding evaluates each distinct kernel
// argument once (KernelEvals counts them), so it takes the memo-free
// RhoSqDirect — the same values the quantized memo serves — and
// leaves the process-wide table and its counters untouched.
func mismatchSemiEmbedding(t *tech.Technology, sg fftk.SemiGrid) (*fftk.SemiEmbedding, error) {
	sigmaU2 := t.SigmaU() * t.SigmaU()
	rt := t.RhoTable()
	return fftk.NewSemiEmbedding(sg, func(d2 float64) float64 {
		return sigmaU2 * rt.RhoSqDirect(d2)
	}, fftk.EmbedOptions{})
}

// covarianceSemi evaluates the capacitor quadratic forms through the
// row-spectral embedding: per row-frequency the operator is one
// cols×cols cross-spectral matrix, so the full (N+1)² block of forms
// contracts in O(M·(N·C² + N²·C)) — no n×n matrix and no O(n²) pair
// sum. The contraction runs on the context's worker budget and
// reduces its per-frequency partials in frequency order, hence is
// bit-identical at any worker count.
func covarianceSemi(ctx context.Context, g *cellGeom, t *tech.Technology, sg fftk.SemiGrid) (*linalg.Dense, error) {
	emb, err := mismatchSemiEmbedding(t, sg)
	if err != nil {
		return nil, err
	}
	obs.Count(ctx, "ccdac_variation_rho_calls_total", emb.KernelEvals)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("variation: covariance: %w", err)
	}
	bits := len(g.cells) - 1
	classes := make([][]int, bits+1)
	for k, rcs := range g.rcs {
		classes[k] = make([]int, len(rcs))
		for i, c := range rcs {
			classes[k][i] = c.Row*g.cols + c.Col
		}
	}
	forms := emb.QuadForms(classes, par.Workers(ctx))
	cov := linalg.NewDense(bits + 1)
	for j := 0; j <= bits; j++ {
		for k := 0; k <= bits; k++ {
			cov.Set(j, k, forms[j][k])
		}
	}
	return cov, nil
}

// mcSampler is the spectral Monte-Carlo sampler with its fixed setup
// paid: the grid fit and the circulant embedding (including the
// spectrum factorization behind CanSample) depend only on the
// placement geometry and the technology — not on the gradient
// analysis, the sample range or the seed — so one mcSampler serves
// every block of every compatible run. variation.Shared caches one
// per prefix, which is what lets coalesced batch tails and
// checkpointed block loops skip the rebuild.
type mcSampler struct {
	sampler interface {
		Sample([]float64, *rand.Rand)
	}
	cols    int
	scratch *mcScratchPool
}

// newMCSampler attempts the spectral setup: grid fit plus embedding
// construction. ok reports whether the placement supports the
// spectral path (false → caller takes the dense Cholesky path).
func newMCSampler(ctx context.Context, units []mcUnit, rows, cols int, t *tech.Technology) (*mcSampler, bool) {
	flat := make([]cellPt, len(units))
	for i, u := range units {
		flat[i] = cellPt{c: u.c, p: u.p}
	}
	grid, regular := fitRegularGrid(flat, rows, cols)
	var sg fftk.SemiGrid
	separable := false
	if !regular {
		if sg, separable = fitSeparableGrid(flat, rows, cols); !separable {
			return nil, false
		}
	}
	if ferr := fault.Check(fault.StageFFT); ferr != nil {
		obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}, 1)
		return nil, false
	}
	// Both embeddings expose the same per-sample draw; the separable
	// one additionally pays a one-time per-frequency factorization,
	// run here on the caller's worker budget.
	var sampler interface {
		Sample([]float64, *rand.Rand)
	}
	if regular {
		emb, calls, fetches, err := mismatchEmbedding(t, grid)
		if err != nil || !emb.CanSample() {
			obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}, 1)
			return nil, false
		}
		obs.Count(ctx, "ccdac_variation_rho_calls_total", calls)
		obs.Count(ctx, "ccdac_variation_rho_memo_hits_total", calls-fetches)
		sampler = emb
	} else {
		emb, err := mismatchSemiEmbedding(t, sg)
		if err != nil || !emb.Factorize(par.Workers(ctx)) {
			obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}, 1)
			return nil, false
		}
		obs.Count(ctx, "ccdac_variation_rho_calls_total", emb.KernelEvals)
		sampler = emb
	}
	obs.CountL(ctx, "ccdac_numeric_fft_structured_total", obs.Labels{"path": "mc"}, 1)
	return &mcSampler{sampler: sampler, cols: cols, scratch: newMCScratchPool(rows * cols)}, true
}

// run draws the sample block [from, to). The per-sample splitmix64
// streams and index-addressed writes keep the output byte-stable at
// any worker count and any block partition, exactly like the dense
// sampler — though the two samplers consume their streams differently
// and so draw different (equally distributed) samples for one seed.
func (ms *mcSampler) run(ctx context.Context, units []mcUnit, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	out := make([][]float64, to-from)
	err := par.ForN(par.Workers(ctx), to-from, func(i int) error {
		s := from + i
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: monte-carlo sample %d: %w", s, err)
		}
		shifts := make([]float64, a.Bits+1)
		ms.draw(shifts, units, a, seed, s)
		out[i] = shifts
		return nil
	})
	if err != nil {
		return nil, err
	}
	obs.Count(ctx, "ccdac_numeric_fft_samples_total", int64(to-from))
	return out, nil
}

// draw folds sample s's lattice field into the per-capacitor shifts
// (len Bits+1, zeroed by the caller), plus the systematic gradient
// shift. It allocates nothing: the field and the reseeded RNG come
// from the per-worker scratch pool.
func (ms *mcSampler) draw(shifts []float64, units []mcUnit, a *Analysis, seed int64, s int) {
	sc := ms.scratch.get(seed, s)
	defer ms.scratch.put(sc)
	field := sc.buf
	ms.sampler.Sample(field, sc.rng)
	for _, u := range units {
		shifts[u.bit] += field[u.c.Row*ms.cols+u.c.Col]
	}
	for k := range shifts {
		shifts[k] += a.DCSys(k)
	}
}

// monteCarloFFT attempts the spectral sampling path: ok reports
// whether it ran (false → caller takes the dense Cholesky path).
func monteCarloFFT(ctx context.Context, units []mcUnit, rows, cols int, t *tech.Technology, a *Analysis, from, to int, seed int64) (out [][]float64, ok bool, err error) {
	ms, ok := newMCSampler(ctx, units, rows, cols, t)
	if !ok {
		return nil, false, nil
	}
	out, err = ms.run(ctx, units, a, from, to, seed)
	return out, true, err
}
