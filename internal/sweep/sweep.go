// Package sweep provides the sensitivity and ablation studies behind
// the paper's design choices: how the placement-style conclusions
// respond to via resistance, wire resistance, correlation length,
// gradient magnitude and switch resistance; and how the block-
// chessboard structure parameters (core size, block granularity) trade
// 3dB frequency against INL/DNL (the space Fig. 4 samples and the
// "best BC" selection searches).
package sweep

import (
	"context"
	"fmt"
	"math"

	"ccdac/internal/core"
	"ccdac/internal/obs"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// Knob identifies a technology parameter scaled in a sensitivity sweep.
type Knob string

const (
	// KnobViaR scales the per-cut via resistance — the FinFET effect
	// the paper's via-avoiding placements target.
	KnobViaR Knob = "via-r"
	// KnobWireR scales every layer's wire resistance.
	KnobWireR Knob = "wire-r"
	// KnobCorrLen scales the mismatch correlation length L_c.
	KnobCorrLen Knob = "corr-len"
	// KnobGradient scales the oxide-gradient magnitude gamma.
	KnobGradient Knob = "gradient"
	// KnobSwitchR scales the driver/switch on-resistance.
	KnobSwitchR Knob = "switch-r"
	// KnobCoupling scales the sidewall coupling capacitance.
	KnobCoupling Knob = "coupling"
	// KnobUnitCap scales the unit capacitance C_u, with the cell
	// outline scaling as sqrt(factor) (MOM density is fixed). The
	// paper: "Increasing C_u can reduce these effects, at the cost of
	// increased power. Moreover, as C_u increases, so does the array
	// area, with larger routing parasitics."
	KnobUnitCap Knob = "unit-cap"
)

// Knobs lists every supported sweep knob.
func Knobs() []Knob {
	return []Knob{KnobViaR, KnobWireR, KnobCorrLen, KnobGradient, KnobSwitchR, KnobCoupling, KnobUnitCap}
}

// ScaledTech returns a copy of base with one knob scaled by factor.
func ScaledTech(base *tech.Technology, knob Knob, factor float64) (*tech.Technology, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("sweep: factor must be positive, got %g", factor)
	}
	t := *base // shallow copy; Layers slice cloned below
	t.Layers = append([]tech.Layer(nil), base.Layers...)
	switch knob {
	case KnobViaR:
		t.ViaROhm *= factor
	case KnobWireR:
		for i := range t.Layers {
			t.Layers[i].ROhmPerUm *= factor
		}
	case KnobCorrLen:
		t.Mis.LcUm *= factor
	case KnobGradient:
		t.Mis.GradientPPMPerUm *= factor
	case KnobSwitchR:
		t.SwitchROhm *= factor
	case KnobCoupling:
		t.CouplingC0fFPerUm *= factor
	case KnobUnitCap:
		t.Unit.CfF *= factor
		side := math.Sqrt(factor)
		t.Unit.W *= side
		t.Unit.H *= side
	default:
		return nil, fmt.Errorf("sweep: unknown knob %q", knob)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: scaled technology invalid: %w", err)
	}
	return &t, nil
}

// Point is one sample of a sensitivity sweep.
type Point struct {
	Factor  float64
	F3dBHz  float64
	DNL     float64
	INL     float64
	ViaCuts int
}

// Sensitivity runs the flow at each scale factor of one knob and
// collects the resulting metrics. The INL/DNL analysis is skipped for
// purely electrical knobs unless withNL is set.
func Sensitivity(cfg core.Config, knob Knob, factors []float64, withNL bool) ([]Point, error) {
	return SensitivityContext(context.Background(), cfg, knob, factors, withNL)
}

// SensitivityContext is Sensitivity under a context carrying
// cancellation and, optionally, an observability trace: each factor's
// run is recorded as a "sweep.point" span annotated with the knob and
// scale factor.
func SensitivityContext(ctx context.Context, cfg core.Config, knob Knob, factors []float64, withNL bool) ([]Point, error) {
	base := cfg.Tech
	if base == nil {
		base = tech.FinFET12()
	}
	out := make([]Point, 0, len(factors))
	for _, f := range factors {
		// With warm stage caches a point costs microseconds, so the
		// per-stage checks inside RunContext may never observe a late
		// cancellation; check once per point explicitly.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := ScaledTech(base, knob, f)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Tech = t
		c.SkipNL = !withNL
		sctx, span := obs.StartSpan(ctx, "sweep.point")
		span.SetAttr("knob", string(knob))
		span.SetAttr("factor", fmt.Sprintf("%g", f))
		r, err := core.RunContext(sctx, c)
		if err != nil {
			err = fmt.Errorf("sweep: factor %g: %w", f, err)
			span.Fail(err)
			span.End()
			return nil, err
		}
		span.End()
		p := Point{Factor: f, F3dBHz: r.F3dBHz, ViaCuts: r.Electrical.ViaCuts}
		if r.NL != nil {
			p.DNL, p.INL = r.NL.MaxAbsDNL, r.NL.MaxAbsINL
		}
		out = append(out, p)
	}
	return out, nil
}

// BCPoint is one block-chessboard structure's full metric set.
type BCPoint struct {
	CoreBits   int
	BlockCells int
	F3dBHz     float64
	DNL, INL   float64
	AreaUm2    float64
	ViaCuts    int
}

// BCAblation evaluates every feasible block-chessboard structure at
// one bit count — the tradeoff space of Fig. 4 and the "best BC"
// search.
func BCAblation(bits, parallel int) ([]BCPoint, error) {
	return BCAblationContext(context.Background(), bits, parallel)
}

// BCAblationContext is BCAblation under a context; each candidate
// structure appears as a "bestbc.candidate" span in an attached trace.
func BCAblationContext(ctx context.Context, bits, parallel int) ([]BCPoint, error) {
	_, all, err := core.RunBestBCContext(ctx, core.Config{Bits: bits, MaxParallel: parallel})
	if err != nil {
		return nil, err
	}
	out := make([]BCPoint, len(all))
	for i, r := range all {
		out[i] = BCPoint{
			CoreBits:   r.Config.BC.CoreBits,
			BlockCells: r.Config.BC.BlockCells,
			F3dBHz:     r.F3dBHz,
			AreaUm2:    r.Electrical.AreaUm2,
			ViaCuts:    r.Electrical.ViaCuts,
		}
		if r.NL != nil {
			out[i].DNL, out[i].INL = r.NL.MaxAbsDNL, r.NL.MaxAbsINL
		}
	}
	return out, nil
}

// ViaRStudy quantifies the paper's FinFET motivation at one bit count
// and a set of via-resistance scale factors: the spiral-vs-chessboard
// f3dB gap with and without parallel routing, and the parallel-routing
// gain itself. As vias get more resistive, parallel routing (p² via
// arrays) becomes more valuable, and the parallel-routed spiral keeps
// its advantage where the single-wire flow loses it.
type ViaRStudy struct {
	Factors []float64
	// GapParallel is f3dB(S, p=2)/f3dB([7]) per factor.
	GapParallel []float64
	// GapSingle is f3dB(S, p=1)/f3dB([7]) per factor.
	GapSingle []float64
	// ParallelGain is f3dB(S, p=2)/f3dB(S, p=1) per factor.
	ParallelGain []float64
}

// StudyViaR runs the via-resistance study.
func StudyViaR(bits int, factors []float64) (*ViaRStudy, error) {
	return StudyViaRContext(context.Background(), bits, factors)
}

// StudyViaRContext is StudyViaR under a context; each factor's three
// runs share one "sweep.point" span in an attached trace.
func StudyViaRContext(ctx context.Context, bits int, factors []float64) (*ViaRStudy, error) {
	s := &ViaRStudy{Factors: append([]float64(nil), factors...)}
	for _, f := range factors {
		// Same rationale as SensitivityContext: memoized points are too
		// fast for in-run cancellation checks to be reliable.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := ScaledTech(tech.FinFET12(), KnobViaR, f)
		if err != nil {
			return nil, err
		}
		sctx, span := obs.StartSpan(ctx, "sweep.point")
		span.SetAttr("knob", string(KnobViaR))
		span.SetAttr("factor", fmt.Sprintf("%g", f))
		run := func(cfg core.Config) (*core.Result, error) {
			r, err := core.RunContext(sctx, cfg)
			if err != nil {
				span.Fail(err)
			}
			return r, err
		}
		sp2, err := run(core.Config{Bits: bits, Style: place.Spiral, Tech: t, SkipNL: true, MaxParallel: 2})
		if err != nil {
			span.End()
			return nil, err
		}
		sp1, err := run(core.Config{Bits: bits, Style: place.Spiral, Tech: t, SkipNL: true})
		if err != nil {
			span.End()
			return nil, err
		}
		cb, err := run(core.Config{Bits: bits, Style: place.Chessboard, Tech: t, SkipNL: true})
		if err != nil {
			span.End()
			return nil, err
		}
		span.End()
		s.GapParallel = append(s.GapParallel, sp2.F3dBHz/cb.F3dBHz)
		s.GapSingle = append(s.GapSingle, sp1.F3dBHz/cb.F3dBHz)
		s.ParallelGain = append(s.ParallelGain, sp2.F3dBHz/sp1.F3dBHz)
	}
	return s, nil
}
