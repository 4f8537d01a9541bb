// Stage memoization: content-addressed caches of the pipeline's
// expensive intermediates, keyed by the exact inputs each stage
// consumes (docs/PERFORMANCE.md, "Cross-stage memoization").
//
//   - placement: (bits, style, effective style params) — technology-
//     independent (placements are cell grids).
//   - routed layout: placement key + per-bit parallel wires + the
//     geometric technology parameters routing reads (layer directions
//     and pitches, unit-cell outline, minimum spacing). Routing never
//     reads resistances or capacitances, so a layout is reusable
//     across electrical-knob sweeps; a hit under a different (but
//     geometry-equal) technology re-tags a shallow copy.
//   - extraction: layout key + the electrical parameters extraction
//     reads (wire/via/switch resistances, wire/coupling/top-plate
//     capacitances, unit C and abutment). Mismatch and reference-
//     voltage parameters are excluded — extraction never reads them —
//     so gradient- and correlation-knob sweeps reuse extractions too.
//
// Cached values are treated as immutable by the whole pipeline (they
// are shared between concurrent runs on a hit), and cold runs are
// deterministic, so cached and uncached runs produce bitwise-identical
// results. Stages still consult fault injection points on a hit or a
// shared pending entry, so fault-injection tests and drills see
// identical behavior either way.
package core

import (
	"context"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/extract"
	"ccdac/internal/fault"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// Process-global stage caches, registered for /metrics exposition.
// Bounds are deliberate: placements are tiny int grids, layouts and
// extractions are the bulky ones.
var (
	placeCache   = memo.Register(memo.New("core_place", 16<<20))
	layoutCache  = memo.Register(memo.New("core_route", 128<<20))
	extractCache = memo.Register(memo.New("core_extract", 64<<20))
)

// stageMemo runs one stage body through its memo cache when the run
// has memoization armed, and directly otherwise. Concurrent runs that
// need the same entry share one computation. A value this run did not
// compute (a hit, or a pending entry another run opened) still passes
// the stage's fault injection point, so fault-injection tests and
// drills see identical behavior either way, and tags the stage span
// memo=hit|shared.
func stageMemo[T any](sctx context.Context, on bool, c *memo.Cache, key, stage string,
	compute func(context.Context) (T, error), size func(T) int64) (T, error) {
	if !on {
		return compute(sctx)
	}
	var zero T
	v, st, err := c.Do(sctx, key, func(ctx context.Context) (any, int64, error) {
		out, err := compute(ctx)
		if err != nil {
			return nil, 0, err
		}
		return out, size(out), nil
	})
	if err != nil {
		return zero, err
	}
	if st != memo.Cold {
		if ferr := fault.Check(stage); ferr != nil {
			return zero, ferr
		}
		obs.CurrentSpan(sctx).SetAttr("memo", st.String())
	}
	return v.(T), nil
}

// effectiveBC resolves the block-chessboard parameters Place actually
// uses, applying the zero-value default.
func effectiveBC(cfg Config) place.BCParams {
	p := cfg.BC
	if p.BlockCells == 0 {
		p = place.BCParams{CoreBits: 4, BlockCells: 2}
		if p.CoreBits > cfg.Bits-1 {
			p.CoreBits = 2
		}
	}
	return p
}

// effectiveAnneal resolves the annealing parameters Place actually
// uses, applying the zero-value default.
func effectiveAnneal(cfg Config) place.AnnealConfig {
	a := cfg.Anneal
	if a.Seed == 0 && a.Moves == 0 {
		a = place.DefaultAnnealConfig()
	}
	return a
}

// placeKey identifies a placement by everything Place consumes —
// effective parameters, not raw ones, so zero-value and explicit
// defaults share one entry.
func placeKey(cfg Config) string {
	k := memo.NewKey("core/place/v1").Int(cfg.Bits).Int(int(cfg.Style))
	switch cfg.Style {
	case place.BlockChessboard:
		p := effectiveBC(cfg)
		k.Int(p.CoreBits).Int(p.BlockCells)
	case place.Annealed:
		a := effectiveAnneal(cfg)
		k.I64(a.Seed).Int(a.Moves).
			F64(a.WDispersion).F64(a.WWirelength).F64(a.TStart).F64(a.TEnd)
	}
	return k.Sum()
}

// routeKey identifies a routed layout: the placement, the per-bit
// parallel-wire vector, and the geometric technology parameters the
// router reads. Electrical parameters are deliberately absent.
func routeKey(pk string, par []int, t *tech.Technology) string {
	k := memo.NewKey("core/route/v1").Str(pk).Ints(par)
	k.Int(len(t.Layers))
	for _, l := range t.Layers {
		k.Int(int(l.Dir)).F64(l.Pitch)
	}
	k.F64(t.SMinUm).
		F64(t.Unit.W).F64(t.Unit.H).F64(t.Unit.AbutLen).
		Int(t.Unit.BottomLayer).Int(t.Unit.TopLayer)
	return k.Sum()
}

// extractKey identifies an extraction: the layout plus the electrical
// parameters extraction reads. Mismatch statistics and VRef are
// excluded (extraction never reads them).
func extractKey(rk string, t *tech.Technology) string {
	k := memo.NewKey("core/extract/v1").Str(rk)
	k.Int(len(t.Layers))
	for _, l := range t.Layers {
		k.F64(l.ROhmPerUm).F64(l.CfFPerUm)
	}
	k.F64(t.ViaROhm).F64(t.SwitchROhm).F64(t.CouplingC0fFPerUm).
		F64(t.SMinUm).F64(t.TopPlateCfFPerUm).
		F64(t.Unit.CfF).F64(t.Unit.AbutLen)
	return k.Sum()
}

// layoutForTech re-tags a cached layout for the requesting run's
// technology: routing consumed only geometric parameters (the cache
// key guarantees they match), but the layout carries the full
// technology pointer for downstream extraction, which does read the
// electrical fields.
func layoutForTech(l *route.Layout, t *tech.Technology) *route.Layout {
	if l.Tech == t {
		return l
	}
	cp := *l
	cp.Tech = t
	return &cp
}

// matrixBytes estimates a placement's cache charge.
func matrixBytes(m *ccmatrix.Matrix) int64 {
	return int64(m.Rows*m.Cols)*8 + 96
}

// layoutBytes estimates a routed layout's cache charge from its bulk
// slices (wires and vias dominate).
func layoutBytes(l *route.Layout) int64 {
	n := int64(len(l.Wires))*64 + int64(len(l.Vias))*40 + int64(len(l.Clusters))*96
	for _, gs := range l.Groups {
		n += int64(len(gs)) * 64
	}
	n += int64(len(l.Par)+len(l.ChannelSlots))*8 + int64(len(l.Terminals))*16
	return n + matrixBytes(l.M) + 256
}

// summaryBytes estimates an extraction's cache charge: the per-bit RC
// nets dominate (per node a label header and a capacitance, about one
// resistor each, and the cell-node lists).
func summaryBytes(s *extract.Summary) int64 {
	n := int64(256)
	for _, b := range s.Bits {
		if b.Net != nil {
			n += int64(b.Net.NumNodes()) * 128
		}
		n += int64(len(b.CellNodes)) * 8
	}
	for _, w := range s.Warnings {
		n += int64(len(w)) + 16
	}
	return n
}
