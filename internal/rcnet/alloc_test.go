package rcnet

import (
	"math/rand"
	"testing"
)

// TestElmoreTreeAllocsFlat guards the slice-based analysis: a fixed
// number of allocations at any network size. The map-based version it
// replaced allocated per node (map growth and adjacency appends), so
// its count rose with size.
func TestElmoreTreeAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := map[int]float64{}
	for _, size := range []int{100, 10000} {
		n, root := randomTree(rng, "random", size)
		counts[size] = testing.AllocsPerRun(10, func() {
			if _, err := n.ElmoreTree(root); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[100] != counts[10000] {
		t.Errorf("ElmoreTree allocations grow with size: %v at 100 nodes, %v at 10000", counts[100], counts[10000])
	}
}
