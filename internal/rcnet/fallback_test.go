package rcnet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ccdac/internal/fault"
	"ccdac/internal/linalg"
)

// buildMesh returns a 2x2 resistor grid with unit caps — a mesh the
// tree analysis rejects, forcing the CG first-moment solve.
func buildMesh() (*Net, int) {
	n := New()
	a := n.AddNode()
	b := n.AddNode()
	c := n.AddNode()
	d := n.AddNode()
	n.AddR(a, b, 100)
	n.AddR(b, d, 100)
	n.AddR(a, c, 100)
	n.AddR(c, d, 100)
	for _, x := range []int{b, c, d} {
		n.AddC(x, 1)
	}
	return n, a
}

func TestCGNonConvergenceFallsBackToDense(t *testing.T) {
	defer fault.Reset()
	fault.Enable(fault.StageLinalgCG, 0, linalg.ErrNotConverged)

	n, root := buildMesh()
	got, err := n.Delay(root)
	if err != nil {
		t.Fatalf("CG non-convergence must fall back to the dense solve: %v", err)
	}
	if !fault.Fired(fault.StageLinalgCG) {
		t.Fatal("fault point never fired: CG was not reached")
	}
	warned := false
	for _, w := range n.Warnings() {
		if strings.Contains(w, "fell back to dense Cholesky") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("fallback not recorded in Warnings: %q", n.Warnings())
	}

	// The dense answer must match the undisturbed CG answer.
	fault.Reset()
	n2, root2 := buildMesh()
	want, err := n2.Delay(root2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-18 {
			t.Errorf("node %d: dense fallback %g != CG %g", i, got[i], want[i])
		}
	}
}

func TestNonConvergenceOtherErrorsPropagate(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected solver failure")
	fault.Enable(fault.StageLinalgCG, 0, sentinel)

	n, root := buildMesh()
	_, err := n.Delay(root)
	if !errors.Is(err, sentinel) {
		t.Fatalf("non-convergence-class errors must propagate, got %v", err)
	}
	if len(n.Warnings()) != 0 {
		t.Errorf("no fallback happened, but warnings recorded: %q", n.Warnings())
	}
}
