// Package variation implements the paper's process-variation models
// (Sec. II-C): the deterministic linear oxide-gradient model (Eq. 3)
// and the spatially-correlated random mismatch model (Eqs. 4-6), whose
// per-capacitor covariance matrix drives the 3σ INL/DNL analysis, plus
// correlated Monte-Carlo samplers as a cross-check extension: an exact
// one at capacitor level (Cholesky of that (N+1)×(N+1) covariance) and
// two spectral ones over the unit-cell lattice.
//
// Performance: the capacitor-level covariance build of Analyze is the
// analysis hot loop — quadratic in unit cells. It runs on a bounded
// worker pool (one covariance row per work item; see internal/par for
// the worker budget plumbing) over per-row memos of the exp-form
// correlation evaluator tech.RhoTable, and every parallel result is
// written by index, so a run's output is bit-identical at any worker
// count. See docs/PERFORMANCE.md.
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
	k := memo.NewKey("variation/cov/v3").Int(int(mode)).Int(len(g.cells))
	for _, cells := range g.cells {
		k.Int(len(cells))
		for _, p := range cells {
			k.F64(p.X).F64(p.Y)
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

// SigmaOn returns sigma of Delta C_ON(i) per Eq. 13 for the given
// switch states D_1..D_N (D[k] indexes capacitor k; D[0] is ignored —
// C_0 is always grounded).
func (a *Analysis) SigmaOn(d []bool) float64 {
	v := 0.0
	for j := 1; j <= a.Bits; j++ {
		if !d[j] {
			continue
		}
		for k := 1; k <= a.Bits; k++ {
			if d[k] {
				v += a.Cov.At(j, k)
			}
		}
	}
	return math.Sqrt(math.Max(0, v))
}

// SigmaT returns sigma of Delta C_T per Eq. 14 (all capacitors,
// including C_0).
func (a *Analysis) SigmaT() float64 {
	v := 0.0
	for j := 0; j <= a.Bits; j++ {
		for k := 0; k <= a.Bits; k++ {
			v += a.Cov.At(j, k)
		}
	}
	return math.Sqrt(math.Max(0, v))
}

// cellGeom is the gathered geometry of one placement: per-capacitor
// unit-cell centers, their placement-grid coordinates (the structured
// covariance indexes its lattice by them), and the occupied-array
// centroid the gradient is referenced to.
type cellGeom struct {
	cells      [][]geom.Pt
	rcs        [][]geom.Cell
	flat       []cellPt
	counts     []int
	rows, cols int
	cx, cy     float64
}

// gatherCells positions every unit cell and computes the centroid.
func gatherCells(m *ccmatrix.Matrix, pos Positioner) *cellGeom {
	g := &cellGeom{
		cells:  make([][]geom.Pt, m.Bits+1),
		rcs:    make([][]geom.Cell, m.Bits+1),
		counts: make([]int, m.Bits+1),
		rows:   m.Rows,
		cols:   m.Cols,
	}
	total := 0
	for k := 0; k <= m.Bits; k++ {
		for _, c := range m.CellsOf(k) {
			p := pos(c)
			g.cells[k] = append(g.cells[k], p)
			g.rcs[k] = append(g.rcs[k], c)
			g.flat = append(g.flat, cellPt{c: c, p: p})
			g.cx += p.X
			g.cy += p.Y
			total++
		}
		g.counts[k] = len(g.cells[k])
	}
	g.cx /= float64(total)
	g.cy /= float64(total)
	return g
}

// gradientCStar evaluates Eq. 3 at one angle:
// C_k* = sum_j C_u * t0/t_j with
// t_j = t0 (1 + gamma (x cos th + y sin th) + q r^2), gamma in 1/um
// and q in 1/um^2 (the quadratic term is an extension; the paper's
// model is linear, q = 0).
func gradientCStar(g *cellGeom, t *tech.Technology, thetaRad float64) []float64 {
	gamma := t.Mis.GradientPPMPerUm * 1e-6
	quad := t.Mis.QuadGradientPPMPerUm2 * 1e-6
	cosT, sinT := math.Cos(thetaRad), math.Sin(thetaRad)
	out := make([]float64, len(g.cells))
	for k, cells := range g.cells {
		sum := 0.0
		for _, p := range cells {
			dx, dy := p.X-g.cx, p.Y-g.cy
			tRatio := 1 + gamma*(dx*cosT+dy*sinT) + quad*(dx*dx+dy*dy)
			sum += t.Unit.CfF / tRatio
		}
		out[k] = sum
	}
	return out
}

// covariance builds the capacitor-level covariance matrix (Eqs. 4-6)
// on the context's worker budget: one covariance row per work item,
// entries written by index, cancellation checked once per row. Each
// row keeps a local memo (tech.RhoLocal) over the correlation
// evaluator, so the ~n²/2 evaluations collapse onto the layout's
// distinct quantized distances; the caller receives the evaluation and
// memo-fetch counts for the run's observability record.
func covariance(ctx context.Context, g *cellGeom, t *tech.Technology) (*linalg.Dense, int64, int64, error) {
	bits := len(g.cells) - 1
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
		cj := g.cells[j]
		// Diagonal entry: rho(0) = 1 self terms plus twice the strict
		// upper pair sum (symmetry halves the work).
		s := float64(len(cj))
		for a := 0; a < len(cj); a++ {
			pa := cj[a]
			for b := a + 1; b < len(cj); b++ {
				dx, dy := pa.X-cj[b].X, pa.Y-cj[b].Y
				s += 2 * local.RhoSq(dx*dx+dy*dy)
			}
		}
		cov.Set(j, j, sigmaU2*s)
		for k := j + 1; k <= bits; k++ {
			ck := g.cells[k]
			s := 0.0
			for _, pa := range cj {
				for _, pb := range ck {
					dx, dy := pa.X-pb.X, pa.Y-pb.Y
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

// Analyze computes the variation view of a placement: the gradient
// capacitor shifts at angle thetaRad, and the random-mismatch
// covariance matrix (angle-independent).
func Analyze(m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, thetaRad float64) (*Analysis, error) {
	return AnalyzeContext(context.Background(), m, pos, t, thetaRad)
}

// AnalyzeContext is Analyze under a context. The covariance build is
// the analysis hot loop (quadratic in unit cells — it dominates a
// large-array run); it runs on the context's worker budget (see
// par.WithWorkers; default GOMAXPROCS) with cancellation checked once
// per covariance row, bounding the post-cancel latency to one row's
// work per worker.
func AnalyzeContext(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, thetaRad float64) (*Analysis, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("variation: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("variation: %w", err)
	}
	g := gatherCells(m, pos)
	a := &Analysis{
		Bits:     m.Bits,
		CuFF:     t.Unit.CfF,
		ThetaRad: thetaRad,
		CStar:    gradientCStar(g, t, thetaRad),
		Counts:   g.counts,
	}
	cov, warns, err := covarianceMemo(ctx, g, t)
	if err != nil {
		return nil, err
	}
	a.Cov = cov
	a.Warnings = warns
	return a, nil
}

// SweepTheta analyzes the placement over nSteps gradient angles in
// [0, pi) and returns one Analysis per angle. The covariance matrix is
// computed once and shared (it is angle-independent).
func SweepTheta(m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, nSteps int) ([]*Analysis, error) {
	return SweepThetaContext(context.Background(), m, pos, t, nSteps)
}

// SweepThetaContext is SweepTheta under a context: cancellation is
// checked within the covariance build and before every angle step, so
// a canceled sweep returns promptly.
//
// The geometry is gathered once and the angle-independent covariance
// is built exactly once (the seed recomputed — then discarded — a full
// covariance per angle); the remaining per-angle gradient evaluations
// are linear in cells and run on the context's worker budget.
func SweepThetaContext(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, nSteps int) ([]*Analysis, error) {
	if nSteps < 1 {
		return nil, fmt.Errorf("variation: need at least 1 sweep step, got %d", nSteps)
	}
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
	// The flattened gradient geometry (centered offsets, radii) is
	// angle-independent: gather it once from the pool and evaluate
	// every angle against it, so the per-angle work allocates nothing
	// beyond its result (see gradGeom; asserted by
	// TestSweepAngleZeroAllocs).
	gg := gradPool.Get().(*gradGeom)
	defer gradPool.Put(gg)
	gg.load(g, t)
	out := make([]*Analysis, nSteps)
	err = par.ForN(par.Workers(ctx), nSteps, func(i int) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("variation: sweep step %d: %w", i, err)
		}
		theta := math.Pi * float64(i) / float64(nSteps)
		cstar := make([]float64, len(g.cells))
		gg.cstarInto(cstar, theta)
		out[i] = &Analysis{
			Bits:     m.Bits,
			CuFF:     t.Unit.CfF,
			ThetaRad: theta,
			CStar:    cstar,
			Counts:   g.counts,
			Cov:      cov, // shared: angle-independent
			Warnings: warns,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MonteCarlo draws correlated random-mismatch samples and returns
// per-sample capacitor shifts DeltaC[sample][k] in fF, with the
// systematic gradient shift of the supplied analysis added in. The
// exact sampler draws from a.Cov itself, so it cross-checks the 3σ
// model's nonlinearity arithmetic, not the covariance behind it; the
// package tests check that against a unit-level oracle.
func MonteCarlo(m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, a *Analysis, samples int, seed int64) ([][]float64, error) {
	return MonteCarloContext(context.Background(), m, pos, t, a, samples, seed)
}

// mcUnit is one positioned unit cell of the spectral samplers.
type mcUnit struct {
	bit int
	c   geom.Cell
	p   geom.Pt
}

// SampleStream versions the Monte-Carlo sample streams: the draws that
// a (seed, sample index) pair yields on every sampling path. It moves
// whenever any path's draws move, so a partial tally persisted under
// another version is never continued with different draws. Version 2
// moved the dense path from the unit-level Cholesky sampler onto the
// exact capacitor-level one; every spectral draw stayed.
const SampleStream = 2

// MonteCarloContext is MonteCarlo under a context: cancellation is
// checked once per sample, so a canceled run stops within one
// sample's work per worker instead of finishing every sample.
//
// Sampling is deterministic for a fixed seed independent of the worker
// count: sample s draws from its own RNG stream derived from (seed, s)
// by a splitmix64 mix, and results are written by sample index.
//
// The exact sampler (monteCarloExact) serves FFTOff, layouts no
// spectral sampler fits, and every spectral fallback. On a uniform
// grid or a complete routed lattice (unless the context selects
// FFTOff) samples come from a spectral sampler instead — no matrix
// factor at all — which preserves the per-stream determinism but
// consumes its streams differently, so the two paths draw different
// samples for one seed. They are not equally distributed: on the 6-bit
// spiral grid (24k samples, 3 seeds) the yield is 0.649–0.655 from the
// 2-D sampler and 0.763–0.767 from the exact one, and on 6-, 8- and
// 10-bit spiral routed layouts the separable sampler reads 5–6 points
// below exact. Yield sign-off should take FFTOff as the exact
// reference (docs/PERFORMANCE.md, "Agreement tolerance").
func MonteCarloContext(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, a *Analysis, samples int, seed int64) ([][]float64, error) {
	if samples < 1 {
		return nil, fmt.Errorf("variation: need at least 1 sample")
	}
	return MonteCarloRangeContext(ctx, m, pos, t, a, 0, samples, seed)
}

// MonteCarloRangeContext draws the contiguous sample block [from, to)
// of the stream MonteCarloContext consumes: sample s seeds its private
// RNG from (seed, s) regardless of the block bounds, so partitioning a
// run into blocks — checkpointed long jobs, coalesced batch tails —
// reproduces the full run's output byte for byte at any block size.
// out[i] is absolute sample from+i.
func MonteCarloRangeContext(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	if from < 0 || to <= from {
		return nil, fmt.Errorf("variation: bad sample range [%d,%d)", from, to)
	}
	if FFTModeOf(ctx) != FFTOff {
		if out, ok, err := monteCarloFFT(ctx, gatherUnits(m, pos), m.Rows, m.Cols, t, a, from, to, seed); ok || err != nil {
			return out, err
		}
	}
	return monteCarloExact(ctx, t, a, from, to, seed)
}

// gatherUnits flattens the placement into bit-tagged unit cells, in
// the canonical bit-major order the spectral samplers fold in.
func gatherUnits(m *ccmatrix.Matrix, pos Positioner) []mcUnit {
	var units []mcUnit
	for k := 0; k <= m.Bits; k++ {
		for _, c := range m.CellsOf(k) {
			units = append(units, mcUnit{bit: k, c: c, p: pos(c)})
		}
	}
	return units
}

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

// Shared captures the expensive, angle- and seed-independent prefix of
// a variation analysis — the gathered geometry and the covariance
// matrix — so compatible analyses (distinct theta, seed or sample
// counts over one layout) build it once and share it structurally.
// Unlike the memo caches (opt-in, byte-bounded, eviction-prone), the
// sharing here is explicit: the caller holds the value exactly as long
// as the batch needs it. The job tier's compatibility micro-batching
// (internal/jobs) is the primary consumer.
type Shared struct {
	bits  int
	g     *cellGeom
	t     *tech.Technology
	cov   *linalg.Dense
	warns []string

	// units is the flattened placement the spectral samplers fold;
	// their fixed setup (lattice fit + embedding) is geometry- and
	// technology-only, so it is built at most once per Shared and
	// reused by every sample block.
	units  []mcUnit
	mcOnce sync.Once
	mcSmp  *mcSampler
	mcOK   bool
}

// NewShared is NewSharedContext under context.Background.
func NewShared(m *ccmatrix.Matrix, pos Positioner, t *tech.Technology) (*Shared, error) {
	return NewSharedContext(context.Background(), m, pos, t)
}

// NewSharedContext gathers the placement geometry and builds the
// covariance matrix once, on the context's worker budget (and through
// the memo cache when the context opts in — the two sharing layers
// compose).
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
	return &Shared{bits: m.Bits, g: g, t: t, cov: cov, warns: warns,
		units: gatherUnits(m, pos)}, nil
}

// Warnings reports degradations the shared covariance build survived.
func (sh *Shared) Warnings() []string { return sh.warns }

// Tech returns the technology the shared prefix was built against.
func (sh *Shared) Tech() *tech.Technology { return sh.t }

// MonteCarloRangeContext draws the contiguous sample block [from, to)
// of the shared layout's per-sample streams — byte-identical to the
// package-level MonteCarloRangeContext over the same placement, seed
// and FFT mode — while paying the spectral sampler's fixed setup
// (lattice fit, embedding, spectrum factorization) at most once per
// Shared. Checkpointed block loops and coalesced batch tails
// reuse the sampler instead of rebuilding it per call, which is what
// keeps the per-request tail cheap relative to the shared prefix.
func (sh *Shared) MonteCarloRangeContext(ctx context.Context, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	if from < 0 || to <= from {
		return nil, fmt.Errorf("variation: bad sample range [%d,%d)", from, to)
	}
	if FFTModeOf(ctx) != FFTOff {
		sh.mcOnce.Do(func() {
			sh.mcSmp, sh.mcOK = newMCSampler(ctx, sh.units, sh.g.rows, sh.g.cols, sh.t)
		})
		if sh.mcOK {
			return sh.mcSmp.run(ctx, sh.units, a, from, to, seed)
		}
	}
	return monteCarloExact(ctx, sh.t, a, from, to, seed)
}

// Analysis evaluates the gradient at one angle against the shared
// geometry and covariance. The work is linear in unit cells — the
// quadratic covariance cost was paid in NewSharedContext — and the
// result is identical to AnalyzeContext over the same inputs.
func (sh *Shared) Analysis(thetaRad float64) *Analysis {
	return &Analysis{
		Bits:     sh.bits,
		CuFF:     sh.t.Unit.CfF,
		ThetaRad: thetaRad,
		CStar:    gradientCStar(sh.g, sh.t, thetaRad),
		Counts:   sh.g.counts,
		Cov:      sh.cov, // shared: angle-independent
		Warnings: sh.warns,
	}
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
