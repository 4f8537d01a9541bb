// Package variation implements the paper's process-variation models
// (Sec. II-C): the deterministic linear oxide-gradient model (Eq. 3)
// and the spatially-correlated random mismatch model (Eqs. 4-6), whose
// per-capacitor covariance matrix drives the 3σ INL/DNL analysis, plus
// correlated Monte-Carlo samplers as a cross-check extension: an exact
// one at capacitor level (Cholesky of that (N+1)×(N+1) covariance) and
// two spectral ones over the unit-cell lattice.
//
// Shared is the one entry: NewSharedContext gathers a placement's cells
// and builds its covariance once, and every gradient angle
// (Shared.Analysis, SweepThetaContext), seed and sample block
// (Shared.MonteCarloRangeContext) is served from that prefix.
//
// Performance: the capacitor-level covariance build is the analysis
// hot loop — quadratic in unit cells on the dense path. It runs on a
// bounded worker pool (one covariance row per work item; see
// internal/par for the worker budget plumbing) over per-row memos of
// the exp-form correlation evaluator tech.RhoTable, and every parallel
// result is written by index, so a run's output is bit-identical at
// any worker count. See docs/PERFORMANCE.md.
package variation

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/linalg"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/tech"
)

// Memoization (opt-in via memo.WithEnabled / core.Config.Memo): the
// covariance matrix depends only on unit-cell geometry and the
// (sigma_u, rho_u, L_c) mismatch parameters — not on resistances,
// gradients or angles — so theta sweeps, Monte-Carlo/yield runs and
// electrical-knob sweeps over one geometry share a single build. The
// matrix is tiny ((N+1)²) but costs ~n² pair evaluations to build.
var covCache = memo.Register(memo.New("variation_cov", 8<<20))

// mismatchKey appends the mismatch parameters a covariance consumes.
func mismatchKey(k *memo.Key, t *tech.Technology) *memo.Key {
	return k.F64(t.SigmaU()).F64(t.Mis.RhoU).F64(t.Mis.LcUm)
}

// covKeyOf identifies a capacitor-level covariance: every unit-cell
// position grouped by capacitor, the mismatch parameters, and the
// kernel-family mode (the structured and dense builds agree only to
// tolerance, so a memo entry must never cross modes — that would make
// a memoized run byte-different from a cold one). The version moves
// with the engines: v3 entries come from the single row-spectral
// engine.
func covKeyOf(g *cellGeom, t *tech.Technology, mode FFTMode) string {
	k := memo.NewKey("variation/cov/v3").Int(int(mode)).Int(len(g.caps))
	for _, cells := range g.caps {
		k.Int(len(cells))
		for _, cp := range cells {
			k.F64(cp.p.X).F64(cp.p.Y)
		}
	}
	return mismatchKey(k, t).Sum()
}

// covarianceMemo is the covariance build behind the memo cache: a hit
// or a build another run already has pending returns the shared
// (immutable) matrix; a miss builds — structured or dense per
// covarianceAuto — and populates the cache when the context opts in.
// Degradation warnings accompany this run's own build only; they
// describe a run's own path, not a cache donor's.
func covarianceMemo(ctx context.Context, g *cellGeom, t *tech.Technology) (*linalg.Dense, []string, error) {
	mode := FFTModeOf(ctx)
	if !memo.Enabled(ctx) {
		return covarianceAuto(ctx, g, t, mode)
	}
	var warns []string
	v, _, err := covCache.Do(ctx, covKeyOf(g, t, mode), func(ctx context.Context) (any, int64, error) {
		cov, w, err := covarianceAuto(ctx, g, t, mode)
		if err != nil {
			return nil, 0, err
		}
		warns = w
		return cov, int64(len(cov.Data))*8 + 64, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return v.(*linalg.Dense), warns, nil
}

// Positioner maps a placement cell to its physical center in microns;
// the routed layout provides this (channel widths shift columns).
type Positioner func(geom.Cell) geom.Pt

// GridPositioner returns a plain-grid positioner with no routing
// channels, useful for placement-only analyses and tests.
func GridPositioner(t *tech.Technology) Positioner {
	return func(c geom.Cell) geom.Pt {
		return geom.Pt{
			X: (float64(c.Col) + 0.5) * t.Unit.W,
			Y: (float64(c.Row) + 0.5) * t.Unit.H,
		}
	}
}

// Analysis carries the variation view of one placement at one gradient
// angle.
type Analysis struct {
	// Bits is the DAC resolution N; capacitors are C_0..C_N.
	Bits int
	// Counts[k] is the number of unit cells of C_k (including any
	// chessboard doubling).
	Counts []int
	// CuFF is the unit capacitance in fF.
	CuFF float64
	// ThetaRad is the oxide-gradient angle used for CStar.
	ThetaRad float64
	// CStar[k] is C_k* of Eq. 3: the gradient-shifted capacitance in fF.
	CStar []float64
	// Cov is the (N+1)x(N+1) capacitor covariance matrix in fF^2:
	// Cov[j][k] = sigma_u^2 * sum_{a in C_j, b in C_k} rho_ab, which
	// reduces to Eq. 6's sigma_p^2, sigma_q^2 and Cov(p,q) entries.
	Cov *linalg.Dense
	// Warnings records degradations the analysis survived — currently
	// the structured-covariance FFT path falling back to the dense
	// build. The pipeline surfaces them through Result.Warnings.
	Warnings []string
}

// DCSys returns the systematic shift Delta C_k^sys = C_k* - n_k C_u
// (Eq. 12) in fF.
func (a *Analysis) DCSys(k int) float64 {
	return a.CStar[k] - float64(a.Counts[k])*a.CuFF
}

// cellPt pairs a placement cell with its positioned center.
type cellPt struct {
	c geom.Cell
	p geom.Pt
}

// cellGeom is the gathered geometry of one placement: every unit cell
// with its placement-grid coordinates (the structured engines index
// their lattice by them) and its positioned center, once, in
// bit-major order. caps[k] is capacitor k's window of that list.
type cellGeom struct {
	flat       []cellPt
	caps       [][]cellPt
	counts     []int
	rows, cols int
}

// gatherCells positions every unit cell.
func gatherCells(m *ccmatrix.Matrix, pos Positioner) *cellGeom {
	g := &cellGeom{
		flat:   make([]cellPt, 0, m.Rows*m.Cols),
		caps:   make([][]cellPt, m.Bits+1),
		counts: make([]int, m.Bits+1),
		rows:   m.Rows,
		cols:   m.Cols,
	}
	for k := range g.caps {
		from := len(g.flat)
		for _, c := range m.CellsOf(k) {
			g.flat = append(g.flat, cellPt{c: c, p: pos(c)})
		}
		g.caps[k] = g.flat[from:]
		g.counts[k] = len(g.caps[k])
	}
	return g
}

// covariance builds the capacitor-level covariance matrix (Eqs. 4-6)
// on the context's worker budget: one covariance row per work item,
// entries written by index, cancellation checked once per row. Each
// row keeps a local memo (tech.RhoLocal) over the correlation
// evaluator, so the ~n²/2 evaluations collapse onto the layout's
// distinct quantized distances; the caller receives the evaluation and
// memo-fetch counts for the run's observability record.
func covariance(ctx context.Context, g *cellGeom, t *tech.Technology) (*linalg.Dense, int64, int64, error) {
	bits := len(g.caps) - 1
	sigmaU2 := t.SigmaU() * t.SigmaU()
	rt := t.RhoTable()
	cov := linalg.NewDense(bits + 1)
	var calls, fetches atomic.Int64
	err := par.ForN(par.Workers(ctx), bits+1, func(i int) error {
		// Claim heavy rows first: row j's work grows with C_j's cell
		// count (2^(j-1) cells), so handing out high bits early keeps
		// the pool balanced. Writes stay index-addressed regardless.
		j := bits - i
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: covariance row %d: %w", j, err)
		}
		local := rt.Local()
		cj := g.caps[j]
		// Diagonal entry: rho(0) = 1 self terms plus twice the strict
		// upper pair sum (symmetry halves the work).
		s := float64(len(cj))
		for a := 0; a < len(cj); a++ {
			pa := cj[a].p
			for b := a + 1; b < len(cj); b++ {
				dx, dy := pa.X-cj[b].p.X, pa.Y-cj[b].p.Y
				s += 2 * local.RhoSq(dx*dx+dy*dy)
			}
		}
		cov.Set(j, j, sigmaU2*s)
		for k := j + 1; k <= bits; k++ {
			ck := g.caps[k]
			s := 0.0
			for _, a := range cj {
				for _, b := range ck {
					dx, dy := a.p.X-b.p.X, a.p.Y-b.p.Y
					s += local.RhoSq(dx*dx + dy*dy)
				}
			}
			c := sigmaU2 * s
			cov.Set(j, k, c)
			cov.Set(k, j, c)
		}
		c, f := local.Stats()
		calls.Add(c)
		fetches.Add(f)
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return cov, calls.Load(), fetches.Load(), nil
}

// SweepThetaContext analyzes the placement over nSteps gradient
// angles in [0, pi): one Shared prefix, then one Shared.Analysis per
// angle on the context's worker budget. Every analysis shares the one
// covariance (it is angle-independent). Cancellation is checked within
// the covariance build and before every angle step, so a canceled
// sweep returns promptly.
func SweepThetaContext(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, nSteps int) ([]*Analysis, error) {
	if nSteps < 1 {
		return nil, fmt.Errorf("variation: need at least 1 sweep step, got %d", nSteps)
	}
	sh, err := NewSharedContext(ctx, m, pos, t)
	if err != nil {
		return nil, err
	}
	out := make([]*Analysis, nSteps)
	err = par.ForN(par.Workers(ctx), nSteps, func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: sweep step %d: %w", i, err)
		}
		out[i] = sh.Analysis(math.Pi * float64(i) / float64(nSteps))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SampleStream versions the Monte-Carlo sample streams: the draws that
// a (seed, sample index) pair yields on every sampling path. It moves
// whenever any path's draws move, so a partial tally persisted under
// another version is never continued with different draws. Version 2
// moved the dense path from the unit-level Cholesky sampler onto the
// exact capacitor-level one; every spectral draw stayed. Version 3
// moved draws at round-off: the separable sampler factors the
// two-for-one half-spectrum, and the exact sampler factors the
// covariance of the folded QuadForms contraction.
const SampleStream = 3

// samplerCov is the matrix the exact sampler factors: a copy of a.Cov
// plus σ_u²·1e-9 per unit cell on the diagonal. That is the exact
// capacitor-level image of a σ_u²·1e-9 jitter on every unit cell,
// which keeps near-singular high-correlation matrices numerically
// positive definite. a.Cov itself is never written: the covariance
// memo and a theta sweep share it.
func samplerCov(t *tech.Technology, a *Analysis) *linalg.Dense {
	cov := a.Cov.Clone()
	jitter := t.SigmaU() * t.SigmaU() * 1e-9
	for k, n := range a.Counts {
		cov.Add(k, k, jitter*float64(n))
	}
	return cov
}

// monteCarloExact is the exact sampler. The DAC reads the mismatch
// only through the N+1 capacitor sums, and those are Gaussian with
// mean DCSys and covariance a.Cov (Eq. 6). So sample s is DCSys + L·z,
// with L the Cholesky factor of samplerCov and z N+1 normals from the
// sample's own stream: O(N³) set-up and O(N²) per sample, whatever the
// array size.
func monteCarloExact(ctx context.Context, t *tech.Technology, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	chol, err := linalg.Cholesky(samplerCov(t, a))
	if err != nil {
		return nil, fmt.Errorf("variation: capacitor covariance: %w", err)
	}
	// Conditioning of the factored covariance, estimated from the factor
	// diagonal: the high-correlation regime that needs the jitter is
	// exactly the regime this gauge exists to make visible.
	obs.SetGauge(ctx, "ccdac_numeric_cov_cond_estimate", linalg.CondEstFromChol(chol))
	n := chol.N
	out := make([][]float64, to-from)
	scratch := newMCScratchPool(n)
	if err := par.ForN(par.Workers(ctx), to-from, func(i int) error {
		s := from + i
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: monte-carlo sample %d: %w", s, err)
		}
		sc := scratch.get(seed, s)
		defer scratch.put(sc)
		z := sc.buf
		for j := range z {
			z[j] = sc.rng.NormFloat64()
		}
		// shifts = DCSys + L z, over the lower triangle of each factor row.
		shifts := make([]float64, n)
		for k := range shifts {
			d := 0.0
			for j, l := range chol.Data[k*n : k*n+k+1] {
				d += l * z[j]
			}
			shifts[k] = d + a.DCSys(k)
		}
		out[i] = shifts
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Shared is the variation prefix of one placement: the gathered cells,
// the covariance matrix and the gradient table, built once, plus the
// spectral sampler's set-up, built at most once on first use. Every
// analysis, theta sweep and Monte-Carlo draw goes through it, so
// compatible work (distinct theta, seed or sample blocks over one
// layout) shares it structurally. Unlike the memo caches (opt-in,
// byte-bounded, eviction-prone), the sharing here is explicit: the
// caller holds the value exactly as long as the work needs it. The
// job tier's compatibility micro-batching (internal/jobs) holds one
// per coalesced group.
type Shared struct {
	g     *cellGeom
	gg    *gradGeom
	t     *tech.Technology
	cov   *linalg.Dense
	warns []string

	// mc is the spectral sampler, nil when the layout or its spectrum
	// rules the spectral path out. Its set-up (lattice fit, embedding,
	// spectrum factorization) depends on the geometry and technology
	// only, so it is paid on the first spectral draw and reused by every
	// later sample block.
	mcOnce sync.Once
	mc     *mcSampler
}

// NewSharedContext gathers the placement geometry once and builds the
// covariance matrix on the context's worker budget (through the memo
// cache when the context opts in — the two sharing layers compose) and
// the gradient table. The covariance build is the analysis hot loop;
// cancellation is checked once per covariance row, bounding the
// post-cancel latency to one row's work per worker.
func NewSharedContext(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology) (*Shared, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("variation: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("variation: %w", err)
	}
	g := gatherCells(m, pos)
	cov, warns, err := covarianceMemo(ctx, g, t)
	if err != nil {
		return nil, err
	}
	return &Shared{g: g, gg: newGradGeom(g, t), t: t, cov: cov, warns: warns}, nil
}

// Warnings reports degradations the shared covariance build survived.
func (sh *Shared) Warnings() []string { return sh.warns }

// Tech returns the technology the shared prefix was built against.
func (sh *Shared) Tech() *tech.Technology { return sh.t }

// Analysis evaluates the gradient (Eq. 3) at one angle against the
// shared gradient table. The work is linear in unit cells — the
// covariance cost was paid in NewSharedContext — and the returned
// Analysis shares the covariance.
func (sh *Shared) Analysis(thetaRad float64) *Analysis {
	cstar := make([]float64, len(sh.g.caps))
	sh.gg.cstarInto(cstar, thetaRad)
	return &Analysis{
		Bits:     len(sh.g.caps) - 1,
		CuFF:     sh.t.Unit.CfF,
		ThetaRad: thetaRad,
		CStar:    cstar,
		Counts:   sh.g.counts,
		Cov:      sh.cov, // shared: angle-independent
		Warnings: sh.warns,
	}
}

// MonteCarloRangeContext draws the contiguous sample block [from, to)
// of correlated random-mismatch samples and returns per-sample
// capacitor shifts out[i][k] in fF for absolute sample from+i, with
// the systematic gradient shift of a added in. Sample s seeds its
// private RNG from (seed, s) by a splitmix64 mix and results are
// written by index, so the output is byte-identical at any worker
// count and any block partition — checkpointed long jobs and coalesced
// batch tails reproduce the one-call draw. Cancellation is checked
// once per sample.
//
// The exact sampler (monteCarloExact) draws from a.Cov itself, so it
// cross-checks the 3σ model's nonlinearity arithmetic, not the
// covariance behind it; the package tests check that against a
// unit-level oracle. It serves FFTOff, layouts no spectral sampler
// fits, and every spectral fallback. On a uniform grid or a complete
// routed lattice (unless the context selects FFTOff) samples come from
// a spectral sampler instead — set up at most once per Shared — which
// consumes its streams differently, so the two paths draw different
// samples for one seed. They are not equally distributed: on the 6-bit
// spiral grid (24k samples, 3 seeds) the yield is 0.649–0.655 from the
// 2-D sampler and 0.763–0.767 from the exact one, and on 6-, 8- and
// 10-bit spiral routed layouts the separable sampler reads 5–6 points
// below exact. Yield sign-off should take FFTOff as the exact
// reference (docs/PERFORMANCE.md, "Agreement tolerance").
func (sh *Shared) MonteCarloRangeContext(ctx context.Context, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	if from < 0 || to <= from {
		return nil, fmt.Errorf("variation: bad sample range [%d,%d)", from, to)
	}
	if FFTModeOf(ctx) != FFTOff {
		sh.mcOnce.Do(func() { sh.mc = newMCSampler(ctx, sh.g, sh.t) })
		if sh.mc != nil {
			return sh.mc.run(ctx, a, from, to, seed)
		}
	}
	return monteCarloExact(ctx, sh.t, a, from, to, seed)
}

// mcStreamSeed derives the RNG stream seed of sample s from the user
// seed via a splitmix64 mix: adjacent raw seeds of Go's LCG source are
// correlated, and per-sample streams are what make the sampler's
// output independent of the worker count.
func mcStreamSeed(seed int64, s int) int64 {
	z := uint64(seed) + (uint64(s)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
