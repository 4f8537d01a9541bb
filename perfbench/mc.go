// Workload mc: an in-process Monte-Carlo yield sign-off.
//
// Why: sampling plus per-sample endpoint NL is almost all of this
// workload and absent from flow. Grid versus routed positions exercise
// both structured covariance tiers: the regular circulant Embedding
// (placement grid) and the row-spectral SemiEmbedding (routed layout,
// whose channels shift the columns). The regular tier is otherwise
// reached only from analyses that skip routing.
//
// Cases (fixed Monte-Carlo seed each, so a sign-off rerun reproduces
// its tally; the workload seed shuffles the case order of every pass).
// The first three are sized to about the same time per estimate, so
// the median latency falls inside one cluster rather than between two:
//
//	6-spiral-grid         many samples of a small array
//	12-chessboard-grid    few samples of a large array
//	10-spiral-routed      routed positions, medium sample count
//	12-chessboard-routed  routed, with a large sampler factorization
//
// Layers loaded: place, route, extract (set-up only), variation
// (covariance, spectral sampler), dacmodel (endpoint NL), yield.
//
// Set-up: layout prep (place, and route + extract for routed cases)
// plus a short warm-up estimate per case, repeated setupReps times.
//
// End-to-end (untraced): op_p50_s / op_p90_s are yield.EstimateContext
// call latencies, ops_per_s is completed estimates per wall second
// (proportional to Monte-Carlo samples per second: every pass runs the
// same cases), peak_rss_mb is this process.
//
// Traced run: each estimate runs untraced, then is replayed as
// variation.NewSharedContext → Shared.Analysis → a 1-sample
// Shared.MonteCarloRangeContext call (the sampler set-up) → the rest
// of the block → dacmodel.MonteCarloNLEndpoint, timing each call; the
// replay's pass count and worst values must reproduce the estimate.
// Per-layer values are mean seconds per estimate, overall and per case:
//
//	variation.shared_s     → ops_per_s
//	variation.mc_setup_s   → ops_per_s (the 12-bit routed case)
//	variation.mc_sample_s  → ops_per_s, op_p90_s
//	dacmodel.mc_nl_s       → ops_per_s, op_p90_s
//	yield.residual_s       → ops_per_s
//	variation.dense_fallbacks (from Shared.Warnings) → ops_per_s
//
// yield.residual_s is yield.estimate_s minus the four layer times.
package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ccdac"
	"ccdac/internal/ccmatrix"
	"ccdac/internal/dacmodel"
	"ccdac/internal/extract"
	"ccdac/internal/par"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

// mcTheta is the oxide-gradient angle of every estimate (the job
// tier's default, 45°).
const mcTheta = math.Pi / 4

type mcCase struct {
	name    string
	bits    int
	style   ccdac.Style
	routed  bool
	samples int
	// spec is the INL and DNL bound in LSB, set so the yield is far
	// from 0 and 1 and the interval check means something.
	spec float64
	seed int64
}

var mcCases = []mcCase{
	{"6-spiral-grid", 6, ccdac.Spiral, false, 24000, 0.0015, 601},
	{"12-chessboard-grid", 12, ccdac.Chessboard, false, 420, 0.03, 1202},
	{"10-spiral-routed", 10, ccdac.Spiral, true, 1800, 0.04, 1003},
	{"12-chessboard-routed", 12, ccdac.Chessboard, true, 400, 0.03, 1204},
}

// mcLayout is one case's prepared geometry.
type mcLayout struct {
	m   *ccmatrix.Matrix
	pos variation.Positioner
	par dacmodel.Parasitics
}

func mcContext() context.Context {
	return par.WithWorkers(context.Background(), runtime.NumCPU())
}

// buildMCLayouts places every case, and routes and extracts the routed
// ones (their parasitic C^TS enters the NL evaluation).
func buildMCLayouts(ctx context.Context) ([]mcLayout, error) {
	t := tech.FinFET12()
	out := make([]mcLayout, len(mcCases))
	for i, c := range mcCases {
		m, err := placeFor(c.style, c.bits)
		if err != nil {
			return nil, fmt.Errorf("mc %s: %w", c.name, err)
		}
		out[i] = mcLayout{m: m, pos: variation.GridPositioner(t)}
		if !c.routed {
			continue
		}
		l, err := route.RouteContext(ctx, m, t, nil)
		if err != nil {
			return nil, fmt.Errorf("mc %s: %w", c.name, err)
		}
		sum, err := extract.ExtractContext(ctx, l)
		if err != nil {
			return nil, fmt.Errorf("mc %s: %w", c.name, err)
		}
		out[i].pos = l.CellCenter
		out[i].par = dacmodel.Parasitics{CTSfF: sum.CTSfF}
	}
	return out, nil
}

func (l mcLayout) estimate(ctx context.Context, c mcCase) (*yield.Result, error) {
	return l.estimateN(ctx, c, c.samples)
}

func (l mcLayout) estimateN(ctx context.Context, c mcCase, samples int) (*yield.Result, error) {
	spec := yield.Spec{MaxAbsDNL: c.spec, MaxAbsINL: c.spec}
	return yield.EstimateContext(ctx, l.m, l.pos, tech.FinFET12(), mcTheta, spec, l.par, samples, c.seed)
}

// mcLayers accumulates one case's per-layer seconds over a traced run.
type mcLayers struct {
	shared, setup, sample, nl, estimate float64
	calls, samples                      int
}

func (a *mcLayers) residual() float64 {
	return a.estimate - (a.shared + a.setup + a.sample + a.nl)
}

func runMC(o options) (*outcome, error) {
	ctx := mcContext()
	out := newOutcome()
	var lay []mcLayout
	setup, err := timeSetup(func() error {
		var err error
		if lay, err = buildMCLayouts(ctx); err != nil {
			return err
		}
		for i, c := range mcCases {
			if _, err := lay[i].estimateN(ctx, c, 8); err != nil {
				return fmt.Errorf("mc %s warm-up: %w", c.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	window := time.Duration(o.seconds * float64(time.Second))
	var lat []float64
	layers := make([]mcLayers, len(mcCases))
	denseFallbacks := 0
	start := time.Now()
	for time.Since(start) < window {
		for _, i := range rng.Perm(len(mcCases)) {
			c := mcCases[i]
			out.attempted++
			// Start every estimate from a collected heap, so its time and
			// the peak resident set do not depend on the previous case's
			// garbage (the seed changes the case order).
			runtime.GC()
			t0 := time.Now()
			res, err := lay[i].estimate(ctx, c)
			d := time.Since(t0).Seconds()
			if err != nil {
				out.fail("mc %s: %v", c.name, err)
				continue
			}
			lat = append(lat, d)
			if err := o.ref.checkYield(c.name, res.Samples, res.Yield); err != nil {
				out.fail("%v", err)
			}
			if !o.trace {
				continue
			}
			acc := &layers[i]
			acc.estimate += d
			acc.calls++
			acc.samples += res.Samples
			runtime.GC()
			n, err := replayMC(ctx, c, lay[i], acc, res)
			denseFallbacks += n
			if err != nil {
				out.fail("replay mc %s: %v", c.name, err)
			}
		}
	}
	wall := time.Since(start).Seconds()

	if !o.trace {
		out.e2e["setup_s"] = setup
		out.e2e["op_p50_s"] = median(lat)
		out.e2e["op_p90_s"] = quantile(lat, 0.9)
		out.e2e["ops_per_s"] = float64(len(lat)) / wall
		out.e2e["peak_rss_mb"] = selfPeakRSSMB()
		return out, nil
	}

	var total mcLayers
	for i, a := range layers {
		if a.calls == 0 {
			continue
		}
		name, n := mcCases[i].name, float64(a.calls)
		out.layer["variation.shared_s."+name] = a.shared / n
		out.layer["variation.mc_setup_s."+name] = a.setup / n
		out.layer["variation.mc_sample_s."+name] = a.sample / n
		out.layer["dacmodel.mc_nl_s."+name] = a.nl / n
		out.layer["yield.residual_s."+name] = a.residual() / n
		total.shared += a.shared
		total.setup += a.setup
		total.sample += a.sample
		total.nl += a.nl
		total.estimate += a.estimate
		total.calls += a.calls
		total.samples += a.samples
	}
	n := float64(total.calls)
	if n == 0 {
		return out, nil
	}
	out.layer["variation.shared_s"] = total.shared / n
	out.layer["variation.mc_setup_s"] = total.setup / n
	out.layer["variation.mc_sample_s"] = total.sample / n
	out.layer["dacmodel.mc_nl_s"] = total.nl / n
	out.layer["yield.estimate_s"] = total.estimate / n
	out.layer["yield.residual_s"] = total.residual() / n
	out.layer["yield.calls"] = n
	out.layer["yield.samples_per_s"] = float64(total.samples) / total.estimate
	out.layer["variation.dense_fallbacks"] = float64(denseFallbacks)
	return out, nil
}

// replayMC re-evaluates one estimate through the shared-prefix path,
// timing each layer call into acc, and checks that it reproduces want.
// It returns the dense-covariance fallbacks the shared build reported.
func replayMC(ctx context.Context, c mcCase, l mcLayout, acc *mcLayers, want *yield.Result) (int, error) {
	t := tech.FinFET12()
	t0 := time.Now()
	sh, err := variation.NewSharedContext(ctx, l.m, l.pos, t)
	if err != nil {
		return 0, err
	}
	a := sh.Analysis(mcTheta)
	acc.shared += time.Since(t0).Seconds()
	fallbacks := countDense(sh.Warnings())

	t0 = time.Now()
	shifts, err := sh.MonteCarloRangeContext(ctx, a, 0, 1, c.seed)
	acc.setup += time.Since(t0).Seconds()
	if err != nil {
		return fallbacks, err
	}
	if c.samples > 1 {
		t0 = time.Now()
		rest, err := sh.MonteCarloRangeContext(ctx, a, 1, c.samples, c.seed)
		acc.sample += time.Since(t0).Seconds()
		if err != nil {
			return fallbacks, err
		}
		shifts = append(shifts, rest...)
	}

	t0 = time.Now()
	nls, err := dacmodel.MonteCarloNLEndpoint(a, shifts, l.par, t.VRef)
	acc.nl += time.Since(t0).Seconds()
	if err != nil {
		return fallbacks, err
	}

	passed := 0
	worstDNL, worstINL := 0.0, 0.0
	for _, nl := range nls {
		worstDNL = math.Max(worstDNL, nl.MaxAbsDNL)
		worstINL = math.Max(worstINL, nl.MaxAbsINL)
		if nl.MaxAbsDNL <= c.spec && nl.MaxAbsINL <= c.spec {
			passed++
		}
	}
	switch {
	case len(nls) != want.Samples || passed != want.Passed:
		return fallbacks, fmt.Errorf("replay passed %d/%d, estimate %d/%d", passed, len(nls), want.Passed, want.Samples)
	case !relClose(worstDNL, want.WorstDNL, refRel) || !relClose(worstINL, want.WorstINL, refRel):
		return fallbacks, fmt.Errorf("replay worst DNL/INL %g/%g, estimate %g/%g", worstDNL, worstINL, want.WorstDNL, want.WorstINL)
	}
	return fallbacks, nil
}
