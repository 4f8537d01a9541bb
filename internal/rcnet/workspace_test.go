package rcnet

import (
	"errors"
	"math/rand"
	"testing"
)

// TestMaxElmoreMatchesElmoreTree requires MaxElmore, with one
// Workspace reused across networks that grow and shrink, to return
// MaxDelay(ElmoreTree(root), nodes) bit for bit, over node sets that
// include merged nodes, repeats and out-of-range indices, and to
// reject every network ElmoreTree rejects.
func TestMaxElmoreMatchesElmoreTree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var ws Workspace
	for _, size := range []int{2500, 1, 17, 10000, 3, 200, 2} {
		for _, shape := range []string{"chain", "star", "random"} {
			n, root := randomTree(rng, shape, size)
			nodes := []int{-1, size}
			for i := 0; i < 1+size/3; i++ {
				nodes = append(nodes, rng.Intn(size))
			}
			delays, err := n.ElmoreTree(root)
			if err != nil {
				t.Fatal(err)
			}
			want := MaxDelay(delays, nodes)
			got, err := n.MaxElmore(&ws, root, nodes)
			if err != nil || got != want {
				t.Fatalf("%s/%d: MaxElmore = %v, %v; want %v", shape, size, got, err, want)
			}
		}
		mesh, root := randomTree(rng, "random", size+2)
		mesh.AddR(0, size+1, 3)
		mesh.AddR(1, size, 5)
		if _, err := mesh.MaxElmore(&ws, root, []int{0}); !errors.Is(err, ErrNotTree) {
			t.Fatalf("mesh of %d nodes: MaxElmore returned %v, want ErrNotTree", size+2, err)
		}
	}
}

// TestMaxElmoreReusesWorkspace: once a Workspace has grown to a
// network's size, MaxElmore on it allocates nothing.
func TestMaxElmoreReusesWorkspace(t *testing.T) {
	n, root := randomTree(rand.New(rand.NewSource(9)), "random", 5000)
	nodes := []int{1, 2, 3, 4000}
	var ws Workspace
	if _, err := n.MaxElmore(&ws, root, nodes); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() {
		if _, err := n.MaxElmore(&ws, root, nodes); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("MaxElmore on a grown workspace: %v allocations, want 0", got)
	}
}
