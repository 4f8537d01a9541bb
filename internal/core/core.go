// Package core orchestrates the paper's full constructive flow
// (Sec. IV): placement → connected-group formation → Algorithm-1
// routing → parasitic extraction → Elmore/f3dB analysis → 3σ INL/DNL
// analysis, including the iterative critical-bit parallel-wire
// assignment of Sec. IV-B4 and the "best block chessboard" selection
// used by the paper's tables.
//
// Robustness contract: every stage runs under panic containment, so an
// internal invariant slip (an out-of-range matrix index, a negative
// parasitic) surfaces as a *StageError instead of crashing the caller.
// Recoverable failures degrade instead of aborting — see the Warnings
// field of Result and docs/ROBUSTNESS.md.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/dacmodel"
	"ccdac/internal/extract"
	"ccdac/internal/fault"
	"ccdac/internal/groups"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// Config selects and parameterizes one flow run.
type Config struct {
	// Bits is the DAC resolution N (capacitors C_0..C_N).
	Bits int
	// Style selects the placement algorithm.
	Style place.Style
	// BC parameterizes block-chessboard placements (Style ==
	// place.BlockChessboard); zero value lets RunBestBC sweep.
	BC place.BCParams
	// Anneal parameterizes the [1]-baseline (Style == place.Annealed).
	Anneal place.AnnealConfig
	// Tech is the process technology; nil selects tech.FinFET12.
	Tech *tech.Technology
	// MaxParallel enables parallel-wire routing: critical bits are
	// promoted to MaxParallel wires iteratively until the critical bit
	// is already parallel (Sec. IV-B4). Values <= 1 disable it. The
	// paper applies it to the spiral and BC flows but not to the [1]
	// and [7] baselines.
	MaxParallel int
	// ThetaSteps is the number of gradient angles swept for the
	// worst-case INL/DNL (0 selects 8).
	ThetaSteps int
	// SkipNL skips the INL/DNL analysis (electrical metrics only).
	SkipNL bool
	// Workers is the parallelism budget for the analysis hot loops
	// (covariance rows, theta steps, per-bit extraction, Monte-Carlo
	// samples): 0 uses GOMAXPROCS, negative forces serial execution.
	// Results are identical at any worker count; only wall time
	// changes.
	Workers int
	// Memo enables content-addressed memoization of stage
	// intermediates (placement, routed layout, extraction, covariance;
	// Monte-Carlo sampling has no cache of its own) in process-global
	// caches, so repeated or overlapping configurations reuse work
	// across runs. Results are bitwise
	// identical with or without it; the knob trades memory for wall
	// time. Callers may equivalently enable it for a whole call tree
	// via memo.WithEnabled on the context.
	Memo bool
}

// StageError attributes a flow failure to the pipeline stage that
// produced it. Stage is one of the fault-package stage names
// (fault.StagePlace, fault.StageRoute, ...). It wraps the underlying
// cause, so errors.Is/As reach through it; recovered panics carry the
// panic value and stack in Err.
type StageError struct {
	Stage string
	Err   error
	// Warnings carries the graceful degradations the run had already
	// accumulated before failing, so callers can still report them when
	// no Result is returned.
	Warnings []string
}

func (e *StageError) Error() string { return fmt.Sprintf("core: %s stage: %v", e.Stage, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// runStage executes one pipeline stage with cancellation checking and
// panic containment, attributing any failure to the stage name. The
// stage runs under an observability span named after it (passed down
// through the callback's context for sub-spans); a failing stage marks
// its span errored, and every completion feeds the per-stage duration
// histogram.
func runStage(ctx context.Context, stage string, f func(context.Context) error) (err error) {
	sctx, span := obs.StartSpan(ctx, stage)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = &StageError{Stage: stage, Err: fmt.Errorf("recovered panic: %v\n%s", r, debug.Stack())}
		}
		// Record the stage's histogram before closing its span, so the
		// span also covers the stage's own bookkeeping.
		obs.ObserveDurationL(ctx, "ccdac_core_stage_seconds", obs.Labels{"stage": stage}, time.Since(start))
		span.Fail(err)
		span.End()
	}()
	if cerr := ctx.Err(); cerr != nil {
		return &StageError{Stage: stage, Err: cerr}
	}
	if serr := f(sctx); serr != nil {
		var se *StageError
		if errors.As(serr, &se) {
			return serr
		}
		return &StageError{Stage: stage, Err: serr}
	}
	return nil
}

// canceled reports whether err stems from context cancellation or
// timeout — such failures must abort, never degrade.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Result is a fully analyzed layout.
type Result struct {
	Config     Config
	Placement  *ccmatrix.Matrix
	Layout     *route.Layout
	Electrical *extract.Summary
	// NL is the worst-over-theta 3σ INL/DNL (nil if SkipNL).
	NL *dacmodel.Result
	// F3dBHz is Eq. 16 evaluated at the critical bit's Elmore delay.
	F3dBHz float64
	// CriticalBit is the capacitor limiting the switching speed.
	CriticalBit int
	// Par is the final per-bit parallel wire assignment.
	Par []int
	// Warnings records graceful degradations taken during the run:
	// abandoned parallel-wire promotions, dense covariance fallbacks
	// and skipped best-BC candidates. An empty slice means the full
	// flow ran as configured.
	Warnings []string
	// Stats are the structured counters behind those warnings.
	Stats RunStats
	// PlaceTime and RouteTime are the constructive-runtime components
	// reported in Table III; AnalyzeTime covers extraction + NL.
	PlaceTime, RouteTime, AnalyzeTime time.Duration
}

// RunStats reports one run's degradation counters in structured form
// — the numeric counterpart of the Warnings prose, so tests assert on
// counts instead of matching warning text. The same numbers are
// recorded as trace metrics when a trace is live.
type RunStats struct {
	// ParWireRetries counts parallel-wire promotions retried with fewer
	// wires after a routing or extraction failure.
	ParWireRetries int
	// ParWireAbandoned counts promotions abandoned entirely, reverting
	// to the last-good layout.
	ParWireAbandoned int
}

// Place builds just the placement for a configuration.
func Place(cfg Config) (*ccmatrix.Matrix, error) {
	switch cfg.Style {
	case place.Spiral:
		return place.NewSpiral(cfg.Bits)
	case place.Chessboard:
		return place.NewChessboard(cfg.Bits)
	case place.BlockChessboard:
		return place.NewBlockChessboard(cfg.Bits, effectiveBC(cfg))
	case place.Annealed:
		return place.NewAnnealed(cfg.Bits, effectiveAnneal(cfg))
	}
	return nil, fmt.Errorf("core: unknown placement style %v", cfg.Style)
}

// Run executes the full flow for one configuration.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the full flow under a context. Cancellation is
// checked at every stage boundary and between parallel-wire promotion
// iterations; a canceled run returns a *StageError wrapping ctx.Err().
// No panic raised by an internal package escapes this function.
func RunContext(ctx context.Context, cfg Config) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Carry the run's worker budget to every downstream hot loop.
	ctx = par.WithWorkers(ctx, cfg.Workers)
	// Arm stage memoization for this call tree when asked; downstream
	// analysis (covariance, Cholesky) keys off the same mark.
	if cfg.Memo {
		ctx = memo.WithEnabled(ctx)
	}
	useMemo := memo.Enabled(ctx)
	// Backstop for panics in the orchestration glue itself; per-stage
	// panics are attributed by runStage before reaching this.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &StageError{Stage: "internal", Err: fmt.Errorf("recovered panic: %v\n%s", r, debug.Stack())}
		}
	}()
	t := cfg.Tech
	if t == nil {
		t = tech.FinFET12()
	}
	res = &Result{Config: cfg}
	obs.Count(ctx, "ccdac_core_runs_total", 1)

	start := time.Now()
	var m *ccmatrix.Matrix
	pKey := ""
	if useMemo {
		pKey = placeKey(cfg)
	}
	if err := runStage(ctx, fault.StagePlace, func(sctx context.Context) error {
		var perr error
		m, perr = stageMemo(sctx, useMemo, placeCache, pKey, fault.StagePlace,
			func(context.Context) (*ccmatrix.Matrix, error) { return Place(cfg) }, matrixBytes)
		return perr
	}); err != nil {
		return nil, err
	}
	res.PlaceTime = time.Since(start)
	res.Placement = m

	// Route; then iteratively promote the critical bit to parallel
	// wires and re-route until the critical bit is already parallel
	// (the paper: "when parallel routing is used on the MSB, the
	// second-most MSB ... may become critical, and parallel routing is
	// used there too"). A promotion that makes routing or extraction
	// fail degrades instead of aborting: retry with fewer wires, and if
	// even two wires fail, keep the last-good single-wire layout.
	start = time.Now()
	par := make([]int, m.Bits+1)
	capOf := make([]int, m.Bits+1)
	for i := range par {
		par[i] = 1
		capOf[i] = cfg.MaxParallel
		if capOf[i] < 1 {
			capOf[i] = 1
		}
	}
	var l, lastL *route.Layout
	var sum, lastSum *extract.Summary
	var lastPar []int
	// gs holds the placement's groups, taken from the first layout and
	// handed to every later route: a promotion changes only the wire
	// counts, never the groups. Until then RouteContext finds them.
	var gs [][]*groups.Group
	promoted := -1
	for iter := 0; ; iter++ {
		var stepL *route.Layout
		var stepSum *extract.Summary
		iterAttr := strconv.Itoa(iter)
		rKey := ""
		if useMemo {
			rKey = routeKey(pKey, par, t)
		}
		err := runStage(ctx, fault.StageRoute, func(sctx context.Context) error {
			obs.CurrentSpan(sctx).SetAttr("iter", iterAttr)
			l, rerr := stageMemo(sctx, useMemo, layoutCache, rKey, fault.StageRoute,
				func(rctx context.Context) (*route.Layout, error) {
					if found := gs; found != nil {
						return route.RouteGroupsContext(rctx, m, found, t, par, route.Options{})
					}
					return route.RouteContext(rctx, m, t, par)
				},
				layoutBytes)
			if rerr == nil {
				stepL = layoutForTech(l, t)
				gs = l.Groups
			}
			return rerr
		})
		if err == nil {
			err = runStage(ctx, fault.StageExtract, func(sctx context.Context) error {
				obs.CurrentSpan(sctx).SetAttr("iter", iterAttr)
				xKey := ""
				if useMemo {
					xKey = extractKey(rKey, t)
				}
				var xerr error
				stepSum, xerr = stageMemo(sctx, useMemo, extractCache, xKey, fault.StageExtract,
					func(xctx context.Context) (*extract.Summary, error) { return extract.ExtractContext(xctx, stepL) },
					summaryBytes)
				return xerr
			})
		}
		if err != nil {
			if canceled(err) || lastL == nil {
				// Cancellation, or the base single-wire flow itself
				// failed: nothing to degrade to.
				return nil, failWith(err, res)
			}
			if par[promoted] > 2 {
				// Retry the failed promotion with fewer parallel wires.
				par[promoted]--
				capOf[promoted] = par[promoted]
				res.Stats.ParWireRetries++
				obs.Count(ctx, "ccdac_core_parwire_retry_total", 1)
				res.Warnings = append(res.Warnings, fmt.Sprintf(
					"core: %d-wire promotion of C_%d failed (%v); retrying with %d wires",
					par[promoted]+1, promoted, err, par[promoted]))
				continue
			}
			// Even the minimal promotion fails: keep the last-good layout.
			capOf[promoted] = 1
			l, sum = lastL, lastSum
			par = lastPar
			res.Stats.ParWireAbandoned++
			obs.Count(ctx, "ccdac_core_parwire_abandoned_total", 1)
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"core: parallel promotion of C_%d failed (%v); keeping last-good layout", promoted, err))
			break
		}
		l, sum = stepL, stepSum
		lastL, lastSum = stepL, stepSum
		lastPar = append([]int(nil), par...)
		crit := sum.CriticalBit()
		if par[crit] >= capOf[crit] || iter > m.Bits+1 {
			break
		}
		promoted = crit
		par[crit] = capOf[crit]
	}
	res.RouteTime = time.Since(start)
	res.Layout = l
	res.Par = par

	start = time.Now()
	res.Electrical = sum
	res.CriticalBit = sum.CriticalBit()
	res.F3dBHz = extract.F3dB(m.Bits, sum.Tau())

	if !cfg.SkipNL {
		if err := runStage(ctx, fault.StageAnalyze, func(sctx context.Context) error {
			if ferr := fault.Check(fault.StageAnalyze); ferr != nil {
				return ferr
			}
			steps := cfg.ThetaSteps
			if steps <= 0 {
				steps = 8
			}
			// The sweep builds one covariance, through QuadForms unless
			// the layout fits no lattice or the engine fails, and tags
			// this stage's span with the engine that built it.
			_, span := obs.StartSpan(sctx, "analysis.sweep")
			sweep, serr := variation.SweepThetaContext(sctx, m, l.CellCenter, t, steps)
			span.Fail(serr)
			span.End()
			if serr != nil {
				return serr
			}
			_, span = obs.StartSpan(sctx, "analysis.nl")
			nl, nerr := dacmodel.WorstOverThetaContext(sctx, sweep, dacmodel.Parasitics{CTSfF: sum.CTSfF}, t.VRef)
			span.Fail(nerr)
			span.End()
			if nerr != nil {
				return nerr
			}
			res.NL = nl
			if len(sweep) > 0 {
				// A dense fallback surfaces like every other graceful
				// degradation. The sweep shares one covariance build, so
				// step 0 carries the run's warnings.
				res.Warnings = append(res.Warnings, sweep[0].Warnings...)
			}
			return nil
		}); err != nil {
			return nil, failWith(err, res)
		}
	}
	res.AnalyzeTime = time.Since(start)
	return res, nil
}

// failWith attaches the run's accumulated degradation warnings to the
// failing StageError, so they survive the discarded Result and callers
// can still report them alongside the error.
func failWith(err error, res *Result) error {
	var se *StageError
	if res != nil && len(res.Warnings) > 0 && errors.As(err, &se) {
		se.Warnings = append(append([]string(nil), res.Warnings...), se.Warnings...)
	}
	return err
}

// RunBestBC sweeps the block-chessboard parameter grid and returns the
// best result — the paper reports "the best BC result" among several
// granularities (Fig. 4). Best = the highest f3dB among candidates
// whose INL and DNL stay below 0.5 LSB (all of the paper's do); ties
// break toward lower INL.
func RunBestBC(cfg Config) (*Result, []*Result, error) {
	return RunBestBCContext(context.Background(), cfg)
}

// RunBestBCContext is RunBestBC under a context. A candidate that
// fails is skipped and recorded in the best result's Warnings rather
// than aborting the sweep; the sweep errors only when every candidate
// fails (with the last failure) or the context is canceled.
func RunBestBCContext(ctx context.Context, cfg Config) (*Result, []*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Style = place.BlockChessboard
	params := place.DefaultBCParams(cfg.Bits)
	if len(params) == 0 {
		return nil, nil, &StageError{
			Stage: fault.StagePlace,
			Err:   fmt.Errorf("core: no feasible BC structures for %d bits", cfg.Bits),
		}
	}
	var best *Result
	var skipped []string
	var lastErr error
	all := make([]*Result, 0, len(params))
	for _, p := range params {
		// With warm stage caches a candidate costs almost nothing, so
		// this loop can spin through the grid faster than the per-stage
		// checks inside RunContext fire; honor cancellation per
		// candidate to keep canceled sweeps prompt either way.
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, &StageError{Stage: fault.StagePlace, Err: cerr}
		}
		c := cfg
		c.BC = p
		cctx, span := obs.StartSpan(ctx, "bestbc.candidate")
		span.SetAttr("core_bits", strconv.Itoa(p.CoreBits))
		span.SetAttr("block_cells", strconv.Itoa(p.BlockCells))
		r, err := RunContext(cctx, c)
		span.Fail(err)
		span.End()
		if err != nil {
			if canceled(err) {
				return nil, nil, err
			}
			obs.Count(ctx, "ccdac_core_bc_skipped_total", 1)
			lastErr = fmt.Errorf("core: BC %+v: %w", p, err)
			skipped = append(skipped, fmt.Sprintf(
				"core: BC candidate {core %d, block %d} skipped: %v", p.CoreBits, p.BlockCells, err))
			continue
		}
		all = append(all, r)
		if r.NL != nil && (r.NL.MaxAbsDNL > 0.5 || r.NL.MaxAbsINL > 0.5) {
			continue
		}
		if best == nil || better(r, best) {
			best = r
		}
	}
	if len(all) == 0 {
		return nil, nil, lastErr
	}
	if best == nil {
		// No candidate met the 0.5 LSB bound; fall back to the fastest.
		best = all[0]
		for _, r := range all[1:] {
			if r.F3dBHz > best.F3dBHz {
				best = r
			}
		}
	}
	best.Warnings = append(best.Warnings, skipped...)
	return best, all, nil
}

func better(a, b *Result) bool {
	if a.F3dBHz != b.F3dBHz {
		return a.F3dBHz > b.F3dBHz
	}
	if a.NL != nil && b.NL != nil {
		return a.NL.MaxAbsINL < b.NL.MaxAbsINL
	}
	return false
}

// ParallelSweep routes one placement at every parallel-wire count in
// ks (applied iteratively to critical bits) and returns the resulting
// f3dB values — the data behind Fig. 6.
func ParallelSweep(cfg Config, ks []int) ([]float64, error) {
	out := make([]float64, len(ks))
	for i, k := range ks {
		c := cfg
		c.MaxParallel = k
		c.SkipNL = true
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out[i] = r.F3dBHz
	}
	return out, nil
}
