package extract

import (
	"context"
	"testing"

	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// TestExtractAllocsBounded holds extraction to a fixed allocation
// budget per bit network, independent of its node count. An 8-bit
// chessboard extracts about 900 nodes and a 12-bit one about 13000, so
// formatting a name per node, or a map-based tree traversal, overshoots
// the budget several times over.
func TestExtractAllocsBounded(t *testing.T) {
	ctx := par.WithWorkers(context.Background(), -1)
	for _, bits := range []int{8, 12} {
		m, err := place.NewChessboard(bits)
		if err != nil {
			t.Fatal(err)
		}
		l, err := route.Route(m, tech.FinFET12(), nil)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(3, func() {
			if _, err := ExtractContext(ctx, l); err != nil {
				t.Fatal(err)
			}
		})
		if budget := float64(64 * (bits + 1)); got > budget {
			t.Errorf("%d-bit extraction: %.0f allocations, budget %.0f", bits, got, budget)
		}
	}
}
