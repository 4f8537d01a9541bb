// Workload flow: the paper's constructive flow as a designer runs it.
//
// Why: every stage runs cold, with no reuse layer engaged (Memo off, FFT
// auto), in a closed loop with one caller and Workers = nproc. A pass
// is bits {8, 10, 12} × {spiral, chessboard, block-chessboard default
// structure}, MaxParallel 2, 8 theta steps, NL on, in an order
// shuffled by the seed. At 12 bits route, extract, the covariance
// sweep and NL each carry a real share of a call; at 8 bits a call is
// a few milliseconds, so fixed per-call cost shows too.
//
// Layers loaded: place, route, extract, variation (theta sweep),
// dacmodel (worst-over-theta NL), core (orchestration), obs (tracing,
// in the overhead probe only).
//
// Set-up: one warm-up pass, repeated setupReps times.
//
// End-to-end (untraced): op_p50_s / op_p90_s are Generate call
// latencies, ops_per_s is completed Generate calls per wall second,
// peak_rss_mb is this process.
//
// Traced run: each call runs Generate untraced and with Config.Trace,
// alternating which goes first, then replays the same configuration as
// place.New* → loop {route.RouteContext → extract.ExtractContext →
// promote the critical bit} → variation.SweepThetaContext →
// dacmodel.WorstOverThetaContext, timing each call, and checks that
// the replay reproduces Generate's Metrics. Per-layer values are mean
// seconds per call, overall and per case (suffix .<bits>-<style>):
//
//	place.s                  → ops_per_s
//	route.s, route.calls     → op_p90_s, ops_per_s
//	extract.s, extract.cg_*  → op_p90_s
//	variation.sweep_s        → op_p90_s
//	variation.dense_fallbacks (from Result.Warnings) → op_p90_s
//	dacmodel.nl_s            → op_p90_s, op_p50_s
//	core.residual_s          → ops_per_s, op_p50_s
//	obs.trace_overhead_pct   (no gate; interleaved off/on pairs)
//
// core.residual_s is core.generate_s (the untraced call) minus the sum
// of the five layer times, so the layers plus the residual add up to
// the untraced time exactly.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ccdac"
	"ccdac/internal/ccmatrix"
	"ccdac/internal/dacmodel"
	"ccdac/internal/extract"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// flowSpecs is one flow pass, in canonical order.
func flowSpecs() []genSpec {
	var out []genSpec
	for _, bits := range []int{8, 10, 12} {
		for _, st := range []ccdac.Style{ccdac.Spiral, ccdac.Chessboard, ccdac.BlockChessboard} {
			out = append(out, genSpec{Bits: bits, Style: st, MaxParallel: 2, Theta: 8})
		}
	}
	return out
}

func caseName(g genSpec) string { return fmt.Sprintf("%d-%s", g.Bits, g.Style) }

// flowLayers accumulates one case's per-layer seconds over a traced run.
type flowLayers struct {
	place, route, extract, sweep, nl, generate float64
	calls                                      int
}

func (a *flowLayers) residual() float64 {
	return a.generate - (a.place + a.route + a.extract + a.sweep + a.nl)
}

func runFlow(o options) (*outcome, error) {
	specs := flowSpecs()
	workers := runtime.NumCPU()
	out := newOutcome()

	setup, err := timeSetup(func() error {
		for _, g := range specs {
			if _, err := ccdac.Generate(g.config(workers)); err != nil {
				return fmt.Errorf("%s: %w", g.key(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	window := time.Duration(o.seconds * float64(time.Second))
	var lat, overhead []float64
	layers := make(map[string]*flowLayers)
	var routeCalls, cgIters, cgFallbacks, denseFallbacks int
	start := time.Now()
	// Whole passes only, so every run sees the same mix.
	for time.Since(start) < window {
		for _, i := range rng.Perm(len(specs)) {
			g := specs[i]
			cfg := g.config(workers)
			out.attempted++
			if !o.trace {
				t0 := time.Now()
				res, err := ccdac.Generate(cfg)
				d := time.Since(t0).Seconds()
				if err != nil {
					out.fail("generate %s: %v", g.key(), err)
					continue
				}
				lat = append(lat, d)
				if err := o.ref.checkGenerate(g, res.Metrics); err != nil {
					out.fail("%v", err)
				}
				continue
			}

			res, dOff, dOn, err := generatePair(cfg, len(overhead)%2 == 1)
			if err != nil {
				out.fail("generate %s: %v", g.key(), err)
				continue
			}
			overhead = append(overhead, dOn/dOff-1)
			if err := o.ref.checkGenerate(g, res.Metrics); err != nil {
				out.fail("%v", err)
			}
			denseFallbacks += countDense(res.Warnings)
			acc := layers[caseName(g)]
			if acc == nil {
				acc = &flowLayers{}
				layers[caseName(g)] = acc
			}
			rp, err := replayFlow(cfg, acc)
			if err != nil {
				out.fail("replay %s: %v", g.key(), err)
				continue
			}
			acc.generate += dOff
			acc.calls++
			routeCalls += rp.routeCalls
			cgIters += rp.cgIterations
			cgFallbacks += rp.cgFallbacks
			if err := diffMetrics(res.Metrics, rp.metrics, refRel); err != nil {
				out.fail("replay %s does not reproduce Generate: %v", g.key(), err)
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

	var total flowLayers
	for name, a := range layers {
		if a.calls == 0 {
			continue
		}
		n := float64(a.calls)
		out.layer["place.s."+name] = a.place / n
		out.layer["route.s."+name] = a.route / n
		out.layer["extract.s."+name] = a.extract / n
		out.layer["variation.sweep_s."+name] = a.sweep / n
		out.layer["dacmodel.nl_s."+name] = a.nl / n
		out.layer["core.residual_s."+name] = a.residual() / n
		total.place += a.place
		total.route += a.route
		total.extract += a.extract
		total.sweep += a.sweep
		total.nl += a.nl
		total.generate += a.generate
		total.calls += a.calls
	}
	n := float64(total.calls)
	if n == 0 {
		return out, nil
	}
	out.layer["place.s"] = total.place / n
	out.layer["route.s"] = total.route / n
	out.layer["extract.s"] = total.extract / n
	out.layer["variation.sweep_s"] = total.sweep / n
	out.layer["dacmodel.nl_s"] = total.nl / n
	out.layer["core.generate_s"] = total.generate / n
	out.layer["core.residual_s"] = total.residual() / n
	out.layer["core.calls"] = n
	out.layer["route.calls"] = float64(routeCalls)
	out.layer["extract.cg_iterations"] = float64(cgIters)
	out.layer["extract.cg_fallbacks"] = float64(cgFallbacks)
	out.layer["variation.dense_fallbacks"] = float64(denseFallbacks)
	out.layer["obs.trace_overhead_pct"] = 100 * median(overhead)
	out.layer["obs.trace_overhead_iqr_pct"] = 100 * (quantile(overhead, 0.75) - quantile(overhead, 0.25))
	return out, nil
}

// generatePair runs cfg untraced and traced back to back, traced first
// when tracedFirst, and returns the untraced result with both times.
func generatePair(cfg ccdac.Config, tracedFirst bool) (*ccdac.Result, float64, float64, error) {
	traced := cfg
	traced.Trace = true
	var res *ccdac.Result
	var dOff, dOn float64
	for i := 0; i < 2; i++ {
		c := cfg
		if (i == 0) == tracedFirst {
			c = traced
		}
		t0 := time.Now()
		r, err := ccdac.Generate(c)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, 0, err
		}
		if c.Trace {
			dOn = d
		} else {
			dOff, res = d, r
		}
	}
	return res, dOff, dOn, nil
}

// flowReplay is what one replayed Generate produced.
type flowReplay struct {
	metrics                               ccdac.Metrics
	routeCalls, cgIterations, cgFallbacks int
}

// replayFlow runs cfg's pipeline through the layers' public functions
// in the order core.RunContext does, adding each call's wall time to
// acc. Degradation paths are not replayed: the workload's
// configurations never take them, and a failure fails the check.
func replayFlow(cfg ccdac.Config, acc *flowLayers) (*flowReplay, error) {
	ctx := par.WithWorkers(context.Background(), cfg.Workers)
	t := tech.FinFET12()
	rp := &flowReplay{}

	t0 := time.Now()
	m, err := placeFor(cfg.Style, cfg.Bits)
	acc.place += time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}

	wires := make([]int, m.Bits+1)
	for i := range wires {
		wires[i] = 1
	}
	var l *route.Layout
	var sum *extract.Summary
	for iter := 0; ; iter++ {
		t0 = time.Now()
		l, err = route.RouteContext(ctx, m, t, wires)
		acc.route += time.Since(t0).Seconds()
		rp.routeCalls++
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		sum, err = extract.ExtractContext(ctx, l)
		acc.extract += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		rp.cgIterations += sum.CGIterations
		rp.cgFallbacks += sum.CGFallbacks
		crit := sum.CriticalBit()
		if wires[crit] >= max(cfg.MaxParallel, 1) || iter > m.Bits+1 {
			break
		}
		wires[crit] = cfg.MaxParallel
	}

	t0 = time.Now()
	sweep, err := variation.SweepThetaContext(ctx, m, l.CellCenter, t, cfg.ThetaSteps)
	acc.sweep += time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	nl, err := dacmodel.WorstOverThetaContext(ctx, sweep, dacmodel.Parasitics{CTSfF: sum.CTSfF}, t.VRef)
	acc.nl += time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}

	crit := sum.Bits[sum.CriticalBit()]
	rp.metrics = ccdac.Metrics{
		AreaUm2:       sum.AreaUm2,
		F3dBHz:        extract.F3dB(m.Bits, sum.Tau()),
		TauSec:        sum.Tau(),
		CriticalBit:   sum.CriticalBit(),
		MaxAbsDNL:     nl.MaxAbsDNL,
		MaxAbsINL:     nl.MaxAbsINL,
		CTSfF:         sum.CTSfF,
		CWirefF:       sum.CWirefF,
		CBBfF:         sum.CBBfF,
		ViaCuts:       sum.ViaCuts,
		WirelengthUm:  sum.WirelengthUm,
		RVkOhm:        crit.RViaOhm / 1000,
		RTotalkOhm:    (crit.RViaOhm + crit.RWireOhm) / 1000,
		ParallelWires: wires,
	}
	return rp, nil
}

// placeFor builds a placement the way the library does for a zero
// block-chessboard structure: core bits 4 (2 below 5 bits), blocks of 2.
func placeFor(style ccdac.Style, bits int) (*ccmatrix.Matrix, error) {
	switch style {
	case ccdac.Spiral:
		return place.NewSpiral(bits)
	case ccdac.Chessboard:
		return place.NewChessboard(bits)
	case ccdac.BlockChessboard:
		p := place.BCParams{CoreBits: 4, BlockCells: 2}
		if p.CoreBits > bits-1 {
			p.CoreBits = 2
		}
		return place.NewBlockChessboard(bits, p)
	}
	return nil, fmt.Errorf("unsupported style %q", style)
}
