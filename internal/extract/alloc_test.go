package extract

import (
	"context"
	"math"
	"runtime"
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
// the budget several times over. The 12-bit call is also held to a
// byte budget: its nets, which the summary keeps, plus the coupling
// sweep come to 1.08 MB (3.16 MB when every bit built its own point
// map and tree arrays). A call that finds no pooled workspace — one a
// collection dropped, or one left on another P — builds one, so the
// budget holds the cheapest of a few calls.
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
		if bits != 12 || raceEnabled {
			continue
		}
		const budget = 1.15e6
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := ExtractContext(ctx, l); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > budget {
			t.Errorf("12-bit extraction: %d bytes per call, budget %.0f", least, budget)
		}
	}
}
