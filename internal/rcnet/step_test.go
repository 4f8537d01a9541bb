package rcnet

import (
	"math"
	"math/rand"
	"testing"
)

// stepResidual returns the largest componentwise relative residual of
// one Backward-Euler step from v to next over the groups of shorted
// nodes: for each group u outside the driver's,
//
//	r_u = Σ_e g_e·(next_u − next_w) + (C_u/dt)·(next_u − v_u),
//
// over the resistors e joining u to another group w, divided by the
// same sum of absolute terms. Groups come from the reference merge, so
// the check shares nothing with the stepper but the net. A group whose
// terms sum below 1e-250 is skipped: deep in a stiff chain the
// voltages decay toward the subnormal range, where a relative residual
// carries no information.
func stepResidual(n *Net, root int, dt float64, v, next []float64) float64 {
	rep, capOf := n.refMerged()
	r := rep[root]
	res := make([]float64, len(rep))
	scale := make([]float64, len(rep))
	for u := range rep {
		if rep[u] == u && u != r {
			c := capOf[u] * 1e-15 / dt
			res[u] = c * (next[u] - v[u])
			scale[u] = c * (math.Abs(next[u]) + math.Abs(v[u]))
		}
	}
	for _, e := range n.res {
		a, b := rep[e.a], rep[e.b]
		if e.ohm == 0 || a == b {
			continue
		}
		g := 1 / e.ohm
		res[a] += g * (next[a] - next[b])
		res[b] += g * (next[b] - next[a])
		s := g * (math.Abs(next[a]) + math.Abs(next[b]))
		scale[a] += s
		scale[b] += s
	}
	worst := 0.0
	for u := range rep {
		if rep[u] == u && u != r && scale[u] > 1e-250 {
			worst = math.Max(worst, math.Abs(res[u])/scale[u])
		}
	}
	return worst
}

// TestStepSolvesBackwardEuler requires every Step on random trees —
// zero-ohm shorts and shorted resistors included — to solve
// (G + C/dt)·v' = (C/dt)·v + b to round-off, with the driver's group
// at 1 V and every node of a group at its group's voltage. The dt
// values span steps far below and far above the nets' RC products
// (1 Ω–500 Ω, 0–10 fF). The bound sits just above the measured worst,
// 2.9e-16.
func TestStepSolvesBackwardEuler(t *testing.T) {
	const bound = 4e-16
	rng := rand.New(rand.NewSource(26))
	worst := 0.0
	for _, shape := range []string{"chain", "star", "random"} {
		for _, size := range []int{2, 3, 17, 200, 2500} {
			for _, dt := range []float64{1e-15, 1e-12, 1e-9} {
				n, root := randomTree(rng, shape, size)
				tr, err := n.Tree(root)
				if err != nil {
					t.Fatalf("%s/%d: %v", shape, size, err)
				}
				rep, _ := n.refMerged()
				s := tr.Stepper(dt)
				v := make([]float64, size)
				next := make([]float64, size)
				for step := 0; step < 5; step++ {
					s.Step()
					for i := range next {
						next[i] = s.V(i)
						if next[i] != s.V(rep[i]) {
							t.Fatalf("%s/%d dt=%g: node %d reads %g, its group %g", shape, size, dt, i, next[i], s.V(rep[i]))
						}
						if rep[i] == rep[root] && next[i] != 1 {
							t.Fatalf("%s/%d dt=%g: driver group node %d at %g V", shape, size, dt, i, next[i])
						}
					}
					worst = math.Max(worst, stepResidual(n, root, dt, v, next))
					v, next = next, v
				}
			}
		}
	}
	t.Logf("worst relative residual %.3g", worst)
	if worst > bound {
		t.Errorf("Backward-Euler step residual %.3g exceeds %g", worst, bound)
	}
}
