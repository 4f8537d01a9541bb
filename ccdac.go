// Package ccdac generates common-centroid placements and constructive
// routing for binary-weighted capacitor arrays in charge-scaling DACs,
// reproducing Karmokar et al., "Constructive Common-Centroid Placement
// and Routing for Binary-Weighted Capacitor Arrays" (DATE 2022).
//
// The package offers the paper's placement styles — the low-via spiral,
// the maximum-dispersion chessboard of Burcea et al. [7], the
// block-chessboard tradeoff family, and an annealed baseline standing
// in for Lin et al. [1] — routes them with the paper's Algorithm 1
// (channel selection, track assignment, branch/trunk/bridge wires,
// optional parallel wires on critical bits), extracts parasitics, and
// evaluates the circuit metrics: Elmore-delay-based 3dB switching
// frequency and 3σ worst-case INL/DNL under a linear oxide gradient
// plus spatially-correlated random mismatch. Every run builds its
// capacitor covariance through one engine, the row-spectral QuadForms
// contraction, with the dense pair sum as its fallback (reported in
// Result.Warnings and on the trace's analysis span).
//
// Quick start:
//
//	res, err := ccdac.Generate(ccdac.Config{Bits: 8, Style: ccdac.Spiral, MaxParallel: 2})
//	if err != nil { ... }
//	fmt.Printf("f3dB = %.0f MHz, |INL| = %.3f LSB\n",
//	        res.Metrics.F3dBHz/1e6, res.Metrics.MaxAbsINL)
//	os.WriteFile("layout.svg", []byte(res.SVGLayout("8-bit spiral")), 0o644)
package ccdac

import (
	"context"

	"ccdac/internal/core"
	"ccdac/internal/obs"
	"ccdac/internal/place"
	"ccdac/internal/render"
	"ccdac/internal/tech"
)

// Style selects a placement algorithm.
type Style string

const (
	// Spiral is the paper's routing-friendly placement: C_2..C_N wind
	// outward from the center in mirrored pairs, minimizing bends and
	// vias (best 3dB frequency, worst INL/DNL).
	Spiral Style = "spiral"
	// Chessboard is the maximum-dispersion placement of Burcea et
	// al. [7] (best INL/DNL, worst 3dB frequency). Odd bit counts
	// double every capacitor's unit cells, as in the paper.
	Chessboard Style = "chessboard"
	// BlockChessboard is the paper's tradeoff family: a full-chessboard
	// core for the LSB capacitors inside a blocked outer corridor for
	// the MSBs.
	BlockChessboard Style = "block-chessboard"
	// Annealed is a simulated-annealing baseline standing in for the
	// stochastic generator of Lin et al. [1] (even bit counts only).
	Annealed Style = "annealed"
)

// Styles lists every supported placement style.
func Styles() []Style {
	return []Style{Spiral, Chessboard, BlockChessboard, Annealed}
}

// Config selects and parameterizes one generation run.
type Config struct {
	// Bits is the DAC resolution N: the array holds capacitors C_0..C_N
	// with ratios 1:1:2:...:2^(N-1) on 2^N unit cells. Supported range
	// is 2..12; the paper evaluates 6..10.
	Bits int
	// Style selects the placement algorithm (default Spiral).
	Style Style
	// CoreBits and BlockCells parameterize BlockChessboard placements:
	// capacitors C_0..C_CoreBits form the chessboard core (CoreBits
	// even), and corridor capacitors are laid out in BlockCells-cell
	// blocks. Zero values select a sensible default; use GenerateBestBC
	// to sweep the grid as the paper does.
	CoreBits, BlockCells int
	// MaxParallel enables parallel-wire routing: the critical (slowest)
	// bit is promoted to MaxParallel parallel wires and re-routed,
	// iterating until the critical bit is already parallel. Values <= 1
	// disable it.
	MaxParallel int
	// AnnealSeed and AnnealMoves tune the Annealed baseline (0 =
	// defaults; deterministic for any fixed seed).
	AnnealSeed int64
	// AnnealMoves caps the annealing move count.
	AnnealMoves int
	// ThetaSteps is the number of oxide-gradient angles swept for the
	// worst-case INL/DNL (0 selects 8).
	ThetaSteps int
	// SkipNonlinearity skips the INL/DNL analysis, leaving only the
	// electrical and frequency metrics (faster).
	SkipNonlinearity bool
	// Workers bounds the goroutines used by the analysis hot loops
	// (covariance rows, theta steps, per-bit extraction, Monte-Carlo
	// samples). 0 uses GOMAXPROCS; negative values force serial
	// execution. Results are identical at any worker count — the knob
	// trades wall time only. Servers hosting several concurrent runs
	// should set this so MaxInFlight × Workers ≈ GOMAXPROCS.
	Workers int
	// TechNode selects the process technology: "finfet12" (default,
	// the paper's target class) or "bulk65" (an older-node contrast
	// where vias are cheap and via-heavy layouts are not penalized).
	TechNode string
	// Trace enables observability for this run: every pipeline stage is
	// recorded as a timed span and solver/router effort as metrics,
	// surfaced on Result.Trace. Runs without Trace pay one atomic load
	// per instrumentation site. See docs/OBSERVABILITY.md.
	Trace bool
	// TraceMemStats additionally snapshots heap-allocation deltas at
	// every span boundary. It forces a runtime.ReadMemStats per span and
	// is meant for offline memory attribution, not routine runs. Ignored
	// unless Trace is set.
	TraceMemStats bool
	// Memo arms the process-wide stage caches: placements, routed
	// layouts, extracted RC summaries and covariance matrices are
	// memoized by content-addressed keys over exactly the inputs each
	// stage consumes. (Monte-Carlo sampling keeps no cache: the exact
	// sampler factors the small capacitor covariance per call.) Repeated or overlapping runs (sweeps,
	// calibration, servers) reuse intermediates; results are bitwise
	// identical to Memo-off runs. See docs/PERFORMANCE.md.
	Memo bool
}

// Metrics summarizes a generated layout, mirroring the paper's
// Tables I and II.
type Metrics struct {
	// AreaUm2 is the routed array area in square microns.
	AreaUm2 float64
	// F3dBHz is the 3dB switching frequency (Eq. 16) at the critical
	// bit's Elmore time constant.
	F3dBHz float64
	// TauSec is that limiting time constant in seconds.
	TauSec float64
	// CriticalBit is the capacitor index limiting the frequency.
	CriticalBit int
	// MaxAbsDNL and MaxAbsINL are the worst-case 3σ nonlinearities in
	// LSB (zero when SkipNonlinearity).
	MaxAbsDNL, MaxAbsINL float64
	// CTSfF, CWirefF and CBBfF are the routing parasitics of Table I:
	// top-plate-to-substrate, bottom-plate wiring, and bottom-to-bottom
	// coupling capacitance, in fF.
	CTSfF, CWirefF, CBBfF float64
	// ViaCuts is the total via count ΣN_V (parallel wires use p² cuts).
	ViaCuts int
	// WirelengthUm is the total routed wirelength ΣL in microns.
	WirelengthUm float64
	// RVkOhm and RTotalkOhm are the critical bit's summed via and
	// wire+via resistance in kΩ.
	RVkOhm, RTotalkOhm float64
	// PlaceSeconds and RouteSeconds are the constructive runtimes
	// (Table III).
	PlaceSeconds, RouteSeconds float64
	// ParallelWires is the final per-capacitor parallel-wire count.
	ParallelWires []int
}

// Result is a generated, routed and analyzed capacitor array.
type Result struct {
	Config  Config
	Metrics Metrics
	// Warnings records graceful degradations taken during generation
	// (solver fallbacks, abandoned parallel-wire promotions, skipped
	// best-BC candidates). Empty means the flow ran exactly as
	// configured; see docs/ROBUSTNESS.md for the degradation ladder.
	Warnings []string
	// Trace holds the run's observability record (span tree + metrics)
	// when Config.Trace is set, nil otherwise.
	Trace *Trace

	res *core.Result
}

// Generate runs the full constructive flow for one configuration.
//
// Errors are always *PipelineError values matching one of the stage
// sentinels (ErrConfig, ErrPlacement, ErrRouting, ErrExtraction,
// ErrAnalysis) under errors.Is; internal invariant panics are
// contained and reported the same way, never propagated.
func Generate(cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), cfg)
}

// GenerateContext is Generate under a context: cancellation and
// deadlines are honored at every stage boundary and between
// parallel-wire promotion iterations. A canceled run returns a
// *PipelineError whose cause matches ctx.Err() under errors.Is.
func GenerateContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg, err := toCoreConfig(cfg)
	if err != nil {
		return nil, err
	}
	ctx, done := startTrace(ctx, cfg)
	r, err := core.RunContext(ctx, ccfg)
	tr := done(err)
	if err != nil {
		return nil, wrapRunError(cfg, err)
	}
	res := wrap(cfg, r)
	res.Trace = tr
	return res, nil
}

// startTrace arms observability for one generation run when cfg.Trace
// is set. The returned done func must be called exactly once with the
// run's error: it closes the root "generate" span (marking it failed on
// error), disarms the trace, and returns the public record (nil when
// tracing is off).
func startTrace(ctx context.Context, cfg Config) (context.Context, func(error) *Trace) {
	if !cfg.Trace {
		return ctx, func(error) *Trace { return nil }
	}
	tr := obs.New(obs.Options{PprofLabels: true, MemStats: cfg.TraceMemStats})
	ctx = obs.WithTrace(ctx, tr)
	ctx, root := obs.StartSpan(ctx, "generate")
	return ctx, func(err error) *Trace {
		root.Fail(err)
		root.End()
		tr.Finish()
		return newTrace(tr)
	}
}

// GenerateBestBC sweeps the block-chessboard parameter grid (core size
// × block granularity) and returns the best structure by 3dB frequency
// subject to the paper's 0.5 LSB INL/DNL bound — the "best BC result"
// of Tables I and II — together with all swept candidates.
//
// A candidate that fails is skipped and recorded in the best result's
// Warnings; the sweep itself fails only when every candidate does (or
// the configuration is invalid).
func GenerateBestBC(cfg Config) (*Result, []*Result, error) {
	return GenerateBestBCContext(context.Background(), cfg)
}

// GenerateBestBCContext is GenerateBestBC under a context.
func GenerateBestBCContext(ctx context.Context, cfg Config) (*Result, []*Result, error) {
	cfg.Style = BlockChessboard
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	ccfg, err := toCoreConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	ctx, done := startTrace(ctx, cfg)
	best, all, err := core.RunBestBCContext(ctx, ccfg)
	tr := done(err)
	if err != nil {
		return nil, nil, wrapRunError(cfg, err)
	}
	out := make([]*Result, len(all))
	for i, r := range all {
		c := cfg
		c.CoreBits = r.Config.BC.CoreBits
		c.BlockCells = r.Config.BC.BlockCells
		out[i] = wrap(c, r)
	}
	bcfg := cfg
	bcfg.CoreBits = best.Config.BC.CoreBits
	bcfg.BlockCells = best.Config.BC.BlockCells
	bres := wrap(bcfg, best)
	bres.Trace = tr
	return bres, out, nil
}

// PlacementASCII renders the placement as text, top row first: hex
// capacitor indices, 'd' for dummy cells.
func (r *Result) PlacementASCII() string {
	return render.ASCIIPlacement(r.res.Placement)
}

// SVGPlacement renders a placement-only SVG (the view of Fig. 2).
func (r *Result) SVGPlacement(title string) string {
	return render.SVGPlacement(r.res.Placement, title)
}

// SVGLayout renders the routed layout as SVG: cells, bottom-plate
// wires, top-plate wires and vias (the view of Figs. 3 and 5).
func (r *Result) SVGLayout(title string) string {
	return render.SVGLayout(r.res.Layout, title)
}

// GroupsSummary lists each capacitor's connected unit-cell groups.
func (r *Result) GroupsSummary() string {
	return render.GroupsSummary(r.res.Layout)
}

func toCoreConfig(cfg Config) (core.Config, error) {
	out := core.Config{
		Bits:        cfg.Bits,
		MaxParallel: cfg.MaxParallel,
		ThetaSteps:  cfg.ThetaSteps,
		SkipNL:      cfg.SkipNonlinearity,
		Workers:     cfg.Workers,
		Memo:        cfg.Memo,
	}
	switch cfg.TechNode {
	case "", "finfet12":
		// core defaults to tech.FinFET12
	case "bulk65":
		out.Tech = tech.Bulk65()
	default:
		return core.Config{}, configErr(cfg, "TechNode", "unknown technology node %q", cfg.TechNode)
	}
	switch cfg.Style {
	case Spiral, "":
		out.Style = place.Spiral
	case Chessboard:
		out.Style = place.Chessboard
	case BlockChessboard:
		out.Style = place.BlockChessboard
		out.BC = place.BCParams{CoreBits: cfg.CoreBits, BlockCells: cfg.BlockCells}
		if out.BC.CoreBits == 0 && out.BC.BlockCells == 0 {
			out.BC = place.BCParams{}
		}
	case Annealed:
		out.Style = place.Annealed
		out.Anneal = place.DefaultAnnealConfig()
		if cfg.AnnealSeed != 0 {
			out.Anneal.Seed = cfg.AnnealSeed
		}
		if cfg.AnnealMoves != 0 {
			out.Anneal.Moves = cfg.AnnealMoves
		}
	default:
		return core.Config{}, configErr(cfg, "Style", "unknown placement style %q", cfg.Style)
	}
	return out, nil
}

func wrap(cfg Config, r *core.Result) *Result {
	crit := r.Electrical.Bits[r.CriticalBit]
	m := Metrics{
		AreaUm2:       r.Electrical.AreaUm2,
		F3dBHz:        r.F3dBHz,
		TauSec:        r.Electrical.Tau(),
		CriticalBit:   r.CriticalBit,
		CTSfF:         r.Electrical.CTSfF,
		CWirefF:       r.Electrical.CWirefF,
		CBBfF:         r.Electrical.CBBfF,
		ViaCuts:       r.Electrical.ViaCuts,
		WirelengthUm:  r.Electrical.WirelengthUm,
		RVkOhm:        crit.RViaOhm / 1000,
		RTotalkOhm:    (crit.RViaOhm + crit.RWireOhm) / 1000,
		PlaceSeconds:  r.PlaceTime.Seconds(),
		RouteSeconds:  r.RouteTime.Seconds(),
		ParallelWires: append([]int(nil), r.Par...),
	}
	if r.NL != nil {
		m.MaxAbsDNL = r.NL.MaxAbsDNL
		m.MaxAbsINL = r.NL.MaxAbsINL
	}
	return &Result{
		Config:   cfg,
		Metrics:  m,
		Warnings: append([]string(nil), r.Warnings...),
		res:      r,
	}
}
