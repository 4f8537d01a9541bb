package rcnet

import (
	"errors"
	"math"
	"testing"
)

const fF = 1e-15

func TestSingleRC(t *testing.T) {
	n := New()
	drv := n.AddNode()
	load := n.AddNode()
	n.AddR(drv, load, 100)
	n.AddC(load, 5) // 5 fF
	d, err := n.ElmoreTree(drv)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * 5 * fF
	if math.Abs(d[load]-want) > 1e-20 {
		t.Fatalf("tau = %g, want %g", d[load], want)
	}
	if d[drv] != 0 {
		t.Fatal("driver delay must be zero")
	}
}

func TestLadderElmore(t *testing.T) {
	// Classic 3-stage ladder: tau_k = sum_{i<=k} R_i * (sum_{j>=i} C_j).
	n := New()
	nodes := []int{n.AddNode()}
	rs := []float64{10, 20, 30}
	cs := []float64{1, 2, 3}
	for i := 0; i < 3; i++ {
		v := n.AddNode()
		n.AddR(nodes[len(nodes)-1], v, rs[i])
		n.AddC(v, cs[i])
		nodes = append(nodes, v)
	}
	d, err := n.ElmoreTree(nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		0,
		10 * 6 * fF,
		10*6*fF + 20*5*fF,
		10*6*fF + 20*5*fF + 30*3*fF,
	}
	for i, w := range want {
		if math.Abs(d[nodes[i]]-w) > 1e-22 {
			t.Errorf("node %d: tau = %g, want %g", i, d[nodes[i]], w)
		}
	}
}

func TestBranchingTree(t *testing.T) {
	// Root -> a; a -> b, a -> c. Delay to b must include c's cap through R(root,a).
	n := New()
	root := n.AddNode()
	a := n.AddNode()
	b := n.AddNode()
	c := n.AddNode()
	n.AddR(root, a, 100)
	n.AddR(a, b, 50)
	n.AddR(a, c, 70)
	n.AddC(b, 2)
	n.AddC(c, 4)
	d, err := n.ElmoreTree(root)
	if err != nil {
		t.Fatal(err)
	}
	wantB := (100*6 + 50*2) * fF
	wantC := (100*6 + 70*4) * fF
	if math.Abs(d[b]-wantB) > 1e-22 || math.Abs(d[c]-wantC) > 1e-22 {
		t.Fatalf("d[b]=%g want %g; d[c]=%g want %g", d[b], wantB, d[c], wantC)
	}
}

func TestZeroOhmMerging(t *testing.T) {
	// Two nodes tied by a 0-ohm short behave as one node.
	n := New()
	root := n.AddNode()
	a := n.AddNode()
	a2 := n.AddNode()
	n.AddR(root, a, 100)
	n.AddR(a, a2, 0)
	n.AddC(a, 1)
	n.AddC(a2, 3)
	d, err := n.ElmoreTree(root)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * 4 * fF
	if math.Abs(d[a]-want) > 1e-22 || math.Abs(d[a2]-want) > 1e-22 {
		t.Fatalf("merged delays %g/%g, want %g", d[a], d[a2], want)
	}
}

func TestMeshRejectedByTreeAnalysis(t *testing.T) {
	n := New()
	root := n.AddNode()
	a := n.AddNode()
	b := n.AddNode()
	n.AddR(root, a, 10)
	n.AddR(root, b, 10)
	n.AddR(a, b, 10) // cycle
	n.AddC(a, 1)
	if _, err := n.ElmoreTree(root); !errors.Is(err, ErrNotTree) {
		t.Fatalf("want ErrNotTree, got %v", err)
	}
}

func TestDisconnectedRejected(t *testing.T) {
	n := New()
	root := n.AddNode()
	a := n.AddNode()
	orphan := n.AddNode()
	n.AddR(root, a, 10)
	n.AddC(orphan, 1)
	if _, err := n.ElmoreTree(root); !errors.Is(err, ErrNotTree) {
		t.Fatalf("tree analysis: want ErrNotTree, got %v", err)
	}
}

// TestParallelResistorsNotTree: two resistors between the same pair of
// nodes close a cycle, so the tree build refuses them. Parallel-wire
// routing stamps p wires as one edge of R/p (vias R/p²), never as p
// resistors.
func TestParallelResistorsNotTree(t *testing.T) {
	n := New()
	root := n.AddNode()
	a := n.AddNode()
	n.AddR(root, a, 10)
	n.AddC(a, 1)
	if _, err := n.Tree(root); err != nil {
		t.Fatalf("single resistor: %v", err)
	}
	n.AddR(root, a, 10)
	if _, err := n.Tree(root); !errors.Is(err, ErrNotTree) {
		t.Fatalf("parallel resistors: Tree returned %v, want ErrNotTree", err)
	}
	if _, err := n.ElmoreTree(root); !errors.Is(err, ErrNotTree) {
		t.Fatalf("parallel resistors: ElmoreTree returned %v, want ErrNotTree", err)
	}
}

func TestMaxDelay(t *testing.T) {
	d := []float64{0, 3, 1, 7, 2}
	if got := MaxDelay(d, []int{1, 2, 4}); got != 3 {
		t.Fatalf("MaxDelay = %g, want 3", got)
	}
	if got := MaxDelay(d, []int{0}); got != 0 {
		t.Fatalf("MaxDelay = %g, want 0", got)
	}
	// Out-of-range indices ignored.
	if got := MaxDelay(d, []int{99, -1, 3}); got != 7 {
		t.Fatalf("MaxDelay = %g, want 7", got)
	}
}

func TestTotalCapAndAccessors(t *testing.T) {
	n := New()
	a := n.AddNode()
	b := n.AddNode()
	n.AddC(a, 1.5)
	n.AddC(a, 0.5)
	n.AddC(b, 3)
	if got := n.TotalCapFF(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("TotalCapFF = %g, want 5", got)
	}
	if n.CapAt(a) != 2 {
		t.Fatalf("CapAt = %g, want 2", n.CapAt(a))
	}
	if n.NumNodes() != 2 || a != 0 || b != 1 {
		t.Fatal("node accessors broken")
	}
}

func TestPanicsOnBadElements(t *testing.T) {
	n := New()
	a := n.AddNode()
	for name, fn := range map[string]func(){
		"negative R":   func() { n.AddR(a, a, -1) },
		"out of range": func() { n.AddR(a, 5, 1) },
		"negative C":   func() { n.AddC(a, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestShortedResistorIgnored(t *testing.T) {
	// A resistor in parallel with a 0-ohm short contributes nothing.
	n := New()
	root := n.AddNode()
	a := n.AddNode()
	b := n.AddNode()
	n.AddR(root, a, 100)
	n.AddR(a, b, 0)
	n.AddR(a, b, 500) // shorted
	n.AddC(b, 2)
	d, err := n.ElmoreTree(root)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * 2 * fF
	if math.Abs(d[b]-want) > 1e-22 {
		t.Fatalf("tau = %g, want %g", d[b], want)
	}
}
