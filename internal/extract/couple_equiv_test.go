package extract

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// sortedCouple is a verbatim copy of the coupling sweep as it stood
// before the track-grouped rewrite: every (layer, direction) bucket is
// sorted by (track, wire index) with sort.Slice and each wire's reach
// window starts at the next entry. It exists only to pin the rewrite
// bit for bit.
func sortedCouple(l *route.Layout, s *Summary) ([]float64, int) {
	pairs := 0
	share := make([]float64, len(l.Wires))
	nLayers := len(l.Tech.Layers)
	buckets := make([][]coupleEntrySorted, 2*nLayers)
	for i, w := range l.Wires {
		if w.Bit == route.TopPlateBit || w.Layer < 0 || w.Layer >= nLayers {
			continue
		}
		perp := w.Seg.A.Y
		b := 2 * w.Layer
		if w.Seg.Dir() == geom.Vertical {
			perp = w.Seg.A.X
			b++
		}
		buckets[b] = append(buckets[b], coupleEntrySorted{idx: i, perp: perp})
	}
	reach := couplingReach * l.Tech.SMinUm
	for _, es := range buckets {
		sort.Slice(es, func(a, b int) bool {
			if es[a].perp != es[b].perp {
				return es[a].perp < es[b].perp
			}
			return es[a].idx < es[b].idx
		})
		for i := 0; i < len(es); i++ {
			wi := l.Wires[es[i].idx]
			for j := i + 1; j < len(es) && es[j].perp-es[i].perp <= reach; j++ {
				sep := es[j].perp - es[i].perp
				if sep == 0 {
					continue
				}
				wj := l.Wires[es[j].idx]
				if wj.Bit == wi.Bit {
					continue
				}
				ov := wi.Seg.OverlapLen(wj.Seg)
				if ov <= 0 {
					continue
				}
				c := l.Tech.CouplingfFPerUm(sep) * ov
				s.CBBfF += c
				share[es[i].idx] += c / 2
				share[es[j].idx] += c / 2
				pairs++
			}
		}
	}
	return share, pairs
}

type coupleEntrySorted struct {
	idx  int
	perp float64
}

// requireSameCoupling compares couple against sortedCouple with ==:
// the pair count, ΣC^BB and every per-wire share.
func requireSameCoupling(t *testing.T, name string, l *route.Layout) {
	t.Helper()
	var got, want Summary
	share, pairs := couple(l, &got)
	refShare, refPairs := sortedCouple(l, &want)
	if pairs != refPairs {
		t.Fatalf("%s: %d pairs, reference %d", name, pairs, refPairs)
	}
	if got.CBBfF != want.CBBfF {
		t.Fatalf("%s: CBBfF = %.17g, reference %.17g", name, got.CBBfF, want.CBBfF)
	}
	if len(share) != len(refShare) {
		t.Fatalf("%s: %d shares, reference %d", name, len(share), len(refShare))
	}
	for i := range share {
		if math.Float64bits(share[i]) != math.Float64bits(refShare[i]) {
			t.Fatalf("%s: wire %d share = %.17g, reference %.17g", name, i, share[i], refShare[i])
		}
	}
}

// TestCoupleMatchesParentSweep requires the track-grouped sweep to
// reproduce the sort-based one exactly on routed spiral, chessboard
// and block-chessboard layouts at 6–12 bits, unit-wired and after the
// MaxParallel-2 promotion loop, and on synthetic layouts built to hit
// the edge cases: one crowded track, tracks at +0 and −0, zero-length
// and non-Manhattan segments, top-plate wires and out-of-range layers.
func TestCoupleMatchesParentSweep(t *testing.T) {
	tch := tech.FinFET12()
	ctx := par.WithWorkers(context.Background(), 2)
	for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
		for bits := 6; bits <= 12; bits++ {
			var m *ccmatrix.Matrix
			var err error
			switch style {
			case place.Spiral:
				m, err = place.NewSpiral(bits)
			case place.Chessboard:
				m, err = place.NewChessboard(bits)
			default:
				m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
			}
			if err != nil {
				t.Fatal(err)
			}
			unit, err := route.RouteContext(ctx, m, tch, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCoupling(t, fmt.Sprintf("%s/%d/unit", style, bits), unit)
			_, parOf := promote(ctx, t, m, tch)
			promoted, err := route.RouteContext(ctx, m, tch, parOf)
			if err != nil {
				t.Fatal(err)
			}
			requireSameCoupling(t, fmt.Sprintf("%s/%d/promoted", style, bits), promoted)
		}
	}
	for name, l := range syntheticCouplingLayouts(tch) {
		requireSameCoupling(t, name, l)
	}
}

// syntheticCouplingLayouts builds wire-only layouts (couple reads
// nothing else) around the sweep's edge cases.
func syntheticCouplingLayouts(tch *tech.Technology) map[string]*route.Layout {
	s := tch.SMinUm
	nLayers := len(tch.Layers)
	hseg := func(y, x0, x1 float64) geom.Seg {
		return geom.Seg{A: geom.Pt{X: x0, Y: y}, B: geom.Pt{X: x1, Y: y}}
	}
	vseg := func(x, y0, y1 float64) geom.Seg {
		return geom.Seg{A: geom.Pt{X: x, Y: y0}, B: geom.Pt{X: x, Y: y1}}
	}
	negZero := math.Copysign(0, -1)
	out := make(map[string]*route.Layout)

	// One crowded track flanked by two near ones: most window steps
	// compare wires on the same track.
	var crowded []route.Wire
	for i := 0; i < 60; i++ {
		x0 := float64(i%7) * 0.3
		crowded = append(crowded, route.Wire{Seg: hseg(1, x0, x0+0.9+float64(i%3)*0.2), Layer: 0, Par: 1, Bit: i % 5})
		if i%6 == 0 {
			crowded = append(crowded, route.Wire{Seg: hseg(1+s, x0, x0+0.5), Layer: 0, Par: 1, Bit: (i + 1) % 5})
			crowded = append(crowded, route.Wire{Seg: hseg(1-2*s, x0+0.1, x0+0.7), Layer: 0, Par: 1, Bit: (i + 2) % 5})
		}
	}
	out["crowded-track"] = &route.Layout{Tech: tch, Wires: crowded}

	// Tracks at +0 and −0 share one coordinate; their neighbors sit on
	// either side, horizontal and vertical.
	out["signed-zero"] = &route.Layout{Tech: tch, Wires: []route.Wire{
		{Seg: hseg(0, 0, 2), Layer: 1, Par: 1, Bit: 0},
		{Seg: hseg(negZero, 0.5, 3), Layer: 1, Par: 1, Bit: 1},
		{Seg: hseg(s, 0.2, 1.4), Layer: 1, Par: 1, Bit: 2},
		{Seg: hseg(-s, 1, 2.5), Layer: 1, Par: 1, Bit: 3},
		{Seg: hseg(negZero, 1.2, 1.8), Layer: 1, Par: 2, Bit: 2},
		{Seg: vseg(negZero, 0, 2), Layer: 2, Par: 1, Bit: 0},
		{Seg: vseg(0, 1, 4), Layer: 2, Par: 1, Bit: 1},
		{Seg: vseg(-1.5*s, 0.5, 3), Layer: 2, Par: 1, Bit: 2},
		{Seg: vseg(2*s, 0, 1), Layer: 2, Par: 1, Bit: 3},
	}}

	// Degenerate and excluded wires: zero-length segments (horizontal by
	// convention), diagonals, top-plate wires and layers outside the
	// stack, each next to a wire it would couple to if counted.
	out["degenerate"] = &route.Layout{Tech: tch, Wires: []route.Wire{
		{Seg: hseg(2, 0, 3), Layer: 0, Par: 1, Bit: 0},
		{Seg: hseg(2+s, 1, 1), Layer: 0, Par: 1, Bit: 1},
		{Seg: geom.Seg{A: geom.Pt{X: 0, Y: 2 + s}, B: geom.Pt{X: 2, Y: 3}}, Layer: 0, Par: 1, Bit: 1},
		{Seg: hseg(2-s, 0, 2), Layer: 0, Par: 1, Bit: route.TopPlateBit},
		{Seg: hseg(2+2*s, 0, 2), Layer: -1, Par: 1, Bit: 2},
		{Seg: hseg(2+2*s, 0, 2), Layer: nLayers, Par: 1, Bit: 2},
		{Seg: hseg(2+3*s, 0.5, 2.5), Layer: 0, Par: 1, Bit: 2},
		{Seg: vseg(4, 1, 1), Layer: 0, Par: 1, Bit: 3},
		{Seg: vseg(4+s, 0, 2), Layer: 0, Par: 1, Bit: 0},
		{Seg: hseg(2+4*s, 3, 4), Layer: 0, Par: 1, Bit: 1},
		{Seg: hseg(2+5*s, 4, 5), Layer: 0, Par: 1, Bit: 0},
	}}

	// A seeded mix of all of the above on a few dozen tracks, some
	// closer than the reach, some at exactly it and some beyond.
	rng := rand.New(rand.NewSource(41))
	var mixed []route.Wire
	tracks := []float64{negZero, 0, s, 2 * s, 6 * s, 6*s + 1e-12, 13 * s, 0.37, 0.37 + s/3, 5}
	for i := 0; i < 600; i++ {
		y := tracks[rng.Intn(len(tracks))]
		lo := float64(rng.Intn(40)) * 0.05
		hi := lo + float64(rng.Intn(20))*0.05
		w := route.Wire{Layer: rng.Intn(nLayers+2) - 1, Par: 1 + rng.Intn(2), Bit: rng.Intn(7) - 1}
		switch rng.Intn(10) {
		case 0:
			w.Seg = geom.Seg{A: geom.Pt{X: lo, Y: y}, B: geom.Pt{X: hi, Y: y + 0.1}}
		case 1, 2, 3:
			w.Seg = vseg(y, hi, lo)
		default:
			w.Seg = hseg(y, hi, lo)
		}
		mixed = append(mixed, w)
	}
	out["seeded-mix"] = &route.Layout{Tech: tch, Wires: mixed}
	return out
}
