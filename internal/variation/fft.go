// FFT-accelerated structured covariance (docs/PERFORMANCE.md,
// "Structured covariance"). The mismatch kernel is stationary — rho
// depends only on the separation — so on a lattice with a shared x
// per column and a uniform row pitch the unit-cell covariance is
// block-Toeplitz over rows and the row axis embeds in a circulant
// (fftk.SemiEmbedding). That gives both unit-level computations a
// spectral form:
//
//   - the capacitor-level covariance of a Shared prefix becomes
//     (N+1)² quadratic forms 1_jᵀ C 1_k, contracted per row frequency
//     instead of ~n²/2 pair sums — one engine for placement grids
//     (uniform columns) and routed layouts (channel-shifted columns),
//     complete or with dummy cells;
//   - the Monte-Carlo draw becomes spectral sampling of the unit-cell
//     field: the 2-D circulant fftk.Embedding on uniform grids, the
//     factorized row-spectral draw on complete non-uniform lattices.
//
// Selection is automatic: one lattice fit (fitLattice) decides both.
// For sampling the engaged embedding's clamped spectrum must
// additionally stay within tolerance. Anything else falls back to the
// dense covariance build or the exact capacitor-level sampler; a
// degradation is counted by ccdac_numeric_fft_fallback_total and
// surfaced through Analysis.Warnings.
package variation

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ccdac/internal/fault"
	"ccdac/internal/fftk"
	"ccdac/internal/linalg"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/tech"
)

// mcScratch is one worker's reusable per-sample state: an RNG that is
// reseeded onto each sample's private stream (see mcStreamSeed) and a
// float buffer — the spectral sampler's lattice field or the exact
// sampler's N+1 normal draws. Reseeding a *rand.Rand yields exactly
// the stream rand.New(rand.NewSource(seed)) would, without allocating a
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
	// geometry allows and falls back to the dense build or the exact
	// sampler otherwise.
	FFTAuto FFTMode = iota
	// FFTOff always uses the dense covariance build and the exact
	// capacitor-level sampler — kept reachable for A/B verification,
	// as the exact Monte-Carlo reference, and as an operational escape
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

// gridPitchTolUm is the absolute position tolerance (microns) of the
// lattice fit: far below any real pitch, far above the floating-point
// noise of positioner arithmetic.
const gridPitchTolUm = 1e-6

// lattice is a layout's fit to the lattices of the structured
// engines.
type lattice struct {
	// sg is the separable lattice QuadForms runs on — a shared x per
	// column, a uniform row pitch — and ok reports that it fits.
	sg fftk.SemiGrid
	ok bool
	// complete reports that the separable lattice holds a capacitor
	// cell at every site: the row-spectral sampler's precondition.
	complete bool
	// grid is the uniform lattice x = x0 + col·dx, y = y0 + row·dy the
	// 2-D sampler runs on, and uniform reports that every cell lies on
	// it.
	grid    fftk.Grid
	uniform bool
}

// fitLattice fits positioned cells to the structured engines' lattice
// over a rows×cols placement, all within gridPitchTolUm. The separable
// fit requires every cell of a column to share its x and every cell of
// a row its y, the row ys uniformly spaced, and at least one cell in
// every row and column — not a complete assignment, so odd-bit arrays
// with dummy cells fit too. (The transposed shape — uniform columns,
// arbitrary rows — does not occur in this flow: channels are
// vertical.) The uniform view takes its pitches from the first cells
// off pts[0]'s column and row; routed layouts with variable channel
// widths do not fit it.
func fitLattice(pts []cellPt, rows, cols int) lattice {
	lat := lattice{grid: fftk.Grid{Rows: rows, Cols: cols}}
	if len(pts) == 0 || rows < 1 || cols < 1 {
		return lat
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
	lat.grid.DX, lat.grid.DY = math.Abs(dx), math.Abs(dy)

	colX := make([]float64, cols)
	rowY := make([]float64, rows)
	seenC := make([]bool, cols)
	seenR := make([]bool, rows)
	lat.ok, lat.uniform = true, true
	for _, cp := range pts {
		r, c := cp.c.Row, cp.c.Col
		wantX := base.p.X + float64(c-base.c.Col)*dx
		wantY := base.p.Y + float64(r-base.c.Row)*dy
		if math.Abs(cp.p.X-wantX) > gridPitchTolUm || math.Abs(cp.p.Y-wantY) > gridPitchTolUm {
			lat.uniform = false
		}
		if r < 0 || r >= rows || c < 0 || c >= cols {
			lat.ok = false
			continue
		}
		if !seenC[c] {
			colX[c], seenC[c] = cp.p.X, true
		} else if math.Abs(cp.p.X-colX[c]) > gridPitchTolUm {
			lat.ok = false
		}
		if !seenR[r] {
			rowY[r], seenR[r] = cp.p.Y, true
		} else if math.Abs(cp.p.Y-rowY[r]) > gridPitchTolUm {
			lat.ok = false
		}
	}
	for _, seen := range [][]bool{seenC, seenR} {
		for _, ok := range seen {
			lat.ok = lat.ok && ok
		}
	}
	pitch := 0.0
	if lat.ok && rows > 1 {
		pitch = (rowY[rows-1] - rowY[0]) / float64(rows-1)
		for r, y := range rowY {
			if math.Abs(y-(rowY[0]+float64(r)*pitch)) > gridPitchTolUm {
				lat.ok = false
			}
		}
	}
	lat.sg = fftk.SemiGrid{Rows: rows, DY: math.Abs(pitch), ColX: colX}
	lat.complete = lat.ok && len(pts) == rows*cols
	return lat
}

// mismatchEmbedding builds the 2-D circulant sampling embedding of the
// unit-cell mismatch covariance sigma_u²·rho(d) over grid, evaluating
// the kernel at the same quantization points as the dense pair sum.
// Returns the embedding plus the number of kernel evaluations.
func mismatchEmbedding(t *tech.Technology, grid fftk.Grid) (*fftk.Embedding, int64, error) {
	sigmaU2 := t.SigmaU() * t.SigmaU()
	rt := t.RhoTable()
	var evals int64
	emb, err := fftk.NewEmbedding(grid, func(d2 float64) float64 {
		evals++
		return sigmaU2 * rt.RhoSq(d2)
	})
	return emb, evals, err
}

// covarianceAuto builds the capacitor-level covariance through the
// row-spectral QuadForms engine when the mode allows and the layout
// fits the separable lattice — placement grids and routed layouts
// alike — and by the dense pair sum otherwise. A degradation (not an
// irregular layout — that is the dense path working as designed) is
// counted and returned as a warning for Result.Warnings.
func covarianceAuto(ctx context.Context, g *cellGeom, t *tech.Technology, mode FFTMode) (*linalg.Dense, []string, error) {
	if mode != FFTOff {
		if lat := fitLattice(g.flat, g.rows, g.cols); lat.ok {
			err := fault.Check(fault.StageFFT)
			if err == nil {
				var cov *linalg.Dense
				if cov, err = covarianceSemi(ctx, g, t, lat.sg); err == nil {
					obs.CountL(ctx, "ccdac_numeric_fft_structured_total", obs.Labels{"path": "analyze"}, 1)
					return cov, nil, nil
				}
				if ctx.Err() != nil {
					return nil, nil, err
				}
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

// mismatchSemiEmbedding is the separable-lattice analog of
// mismatchEmbedding, built on up to workers goroutines. The embedding
// evaluates each distinct kernel argument once (KernelEvals counts
// them).
func mismatchSemiEmbedding(t *tech.Technology, sg fftk.SemiGrid, workers int) (*fftk.SemiEmbedding, error) {
	sigmaU2 := t.SigmaU() * t.SigmaU()
	rt := t.RhoTable()
	return fftk.NewSemiEmbedding(sg, func(d2 float64) float64 {
		return sigmaU2 * rt.RhoSq(d2)
	}, workers)
}

// covarianceSemi evaluates the capacitor quadratic forms through the
// row-spectral embedding: per row-frequency the operator is one
// cols×cols cross-spectral matrix, so the full (N+1)² block of forms
// contracts in O(M·(N·C² + N²·C)) — no n×n matrix and no O(n²) pair
// sum. The contraction runs on the context's worker budget and
// reduces its per-frequency partials in frequency order, hence is
// bit-identical at any worker count.
func covarianceSemi(ctx context.Context, g *cellGeom, t *tech.Technology, sg fftk.SemiGrid) (*linalg.Dense, error) {
	emb, err := mismatchSemiEmbedding(t, sg, par.Workers(ctx))
	if err != nil {
		return nil, err
	}
	obs.Count(ctx, "ccdac_variation_rho_calls_total", emb.KernelEvals)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("variation: covariance: %w", err)
	}
	bits := len(g.caps) - 1
	classes := make([][]int, bits+1)
	for k, cells := range g.caps {
		classes[k] = make([]int, len(cells))
		for i, cp := range cells {
			classes[k][i] = cp.c.Row*g.cols + cp.c.Col
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
// paid: the lattice fit and the embedding (including the spectrum
// factorization behind CanSample) depend only on the placement
// geometry and the technology — not on the gradient analysis, the
// sample range or the seed — so one mcSampler serves every block of
// every compatible run. Each Shared sets one up at most once, which
// is what lets coalesced batch tails and checkpointed block loops skip
// the rebuild.
type mcSampler struct {
	sampler interface {
		Sample([]float64, *rand.Rand)
	}
	g       *cellGeom
	scratch *mcScratchPool
}

// newMCSampler attempts the spectral setup over a gathered geometry:
// lattice fit plus embedding construction — the 2-D circulant on a
// uniform grid, the row-spectral factorization on a complete
// non-uniform lattice. It returns nil when the placement does not
// support the spectral path (the caller takes the exact sampler).
func newMCSampler(ctx context.Context, g *cellGeom, t *tech.Technology) *mcSampler {
	lat := fitLattice(g.flat, g.rows, g.cols)
	if !lat.uniform && !lat.complete {
		return nil
	}
	if ferr := fault.Check(fault.StageFFT); ferr != nil {
		obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}, 1)
		return nil
	}
	// Both embeddings expose the same per-sample draw; the separable
	// one additionally pays a one-time per-frequency factorization,
	// run here on the caller's worker budget.
	var sampler interface {
		Sample([]float64, *rand.Rand)
	}
	if lat.uniform {
		emb, evals, err := mismatchEmbedding(t, lat.grid)
		if err != nil || !emb.CanSample() {
			obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}, 1)
			return nil
		}
		obs.Count(ctx, "ccdac_variation_rho_calls_total", evals)
		sampler = emb
	} else {
		emb, err := mismatchSemiEmbedding(t, lat.sg, par.Workers(ctx))
		if err != nil || !emb.Factorize(par.Workers(ctx)) {
			obs.CountL(ctx, "ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}, 1)
			return nil
		}
		obs.Count(ctx, "ccdac_variation_rho_calls_total", emb.KernelEvals)
		sampler = emb
	}
	obs.CountL(ctx, "ccdac_numeric_fft_structured_total", obs.Labels{"path": "mc"}, 1)
	return &mcSampler{sampler: sampler, g: g, scratch: newMCScratchPool(g.rows * g.cols)}
}

// run draws the sample block [from, to). The per-sample splitmix64
// streams and index-addressed writes keep the output byte-stable at
// any worker count and any block partition, exactly like the exact
// sampler. The two consume their streams differently, so they draw
// different samples for one seed — and not equally distributed ones:
// both spectral samplers are measured biased against the exact one
// (docs/PERFORMANCE.md, "Agreement tolerance"), so yield sign-off
// takes FFTOff as its exact reference.
func (ms *mcSampler) run(ctx context.Context, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	out := make([][]float64, to-from)
	err := par.ForN(par.Workers(ctx), to-from, func(i int) error {
		s := from + i
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: monte-carlo sample %d: %w", s, err)
		}
		shifts := make([]float64, a.Bits+1)
		ms.draw(shifts, a, seed, s)
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
// (len Bits+1, zeroed by the caller) over the geometry's cells in
// bit-major order, plus the systematic gradient shift. It allocates
// nothing: the field and the reseeded RNG come from the per-worker
// scratch pool.
func (ms *mcSampler) draw(shifts []float64, a *Analysis, seed int64, s int) {
	sc := ms.scratch.get(seed, s)
	defer ms.scratch.put(sc)
	field := sc.buf
	ms.sampler.Sample(field, sc.rng)
	for k, cells := range ms.g.caps {
		for _, cp := range cells {
			shifts[k] += field[cp.c.Row*ms.g.cols+cp.c.Col]
		}
		shifts[k] += a.DCSys(k)
	}
}
