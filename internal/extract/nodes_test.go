package extract

import (
	"math"
	"testing"

	"ccdac/internal/geom"
	"ccdac/internal/rcnet"
)

// TestBitNodesWideKeys: points beyond int32 nanometres (±2.1 m) are
// keyed by their exact coordinates, so a far point never lands on the
// near point whose packed coordinates its own would truncate to, and
// every point keeps one node per layer on both sides of the range. A
// numbering taken again from the pool starts empty.
func TestBitNodesWideKeys(t *testing.T) {
	wrap := float64(int64(1)<<32) / 1000 // 2^32 nm in µm
	near := geom.Pt{X: 1.5, Y: -2}
	points := []geom.Pt{
		near,
		{X: near.X + wrap, Y: near.Y},
		{X: near.X, Y: near.Y - wrap},
		{X: -near.X, Y: -near.Y},
		{X: math.MaxInt32 / 1000.0, Y: math.MinInt32 / 1000.0},
		{X: (math.MaxInt32 + 1) / 1000.0, Y: 0},
	}
	net := rcnet.New()
	b := numbering(net)
	ids := map[int]bool{}
	for _, p := range points {
		for layer := 0; layer < 2; layer++ {
			id := b.nodeOf(p, layer)
			if ids[id] {
				t.Fatalf("point %v layer %d: node %d already belongs to another point or layer", p, layer, id)
			}
			ids[id] = true
			if again := b.nodeOf(geom.Pt{X: p.X + 1e-4, Y: p.Y - 1e-4}, layer); again != id {
				t.Fatalf("point %v layer %d: node %d, then %d within the same nanometre", p, layer, id, again)
			}
		}
	}
	if len(b.wide) != 3 {
		t.Errorf("%d points keyed exactly, want the 3 beyond int32 range", len(b.wide))
	}
	b.release()
	b = numbering(rcnet.New())
	if len(b.at) != 0 || b.wide != nil || len(b.junc) != 0 {
		t.Errorf("reused numbering not emptied: %d points, %d wide, %d junctions", len(b.at), len(b.wide), len(b.junc))
	}
}
