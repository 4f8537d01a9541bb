package rcnet

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ccdac/internal/linalg"
)

// The reference implementations below are verbatim copies of the
// map-based analyses the slice-based ones replaced. They exist only to
// pin bit identity: same delays, same moments, same errors.

func (n *Net) refMerged() (rep []int, capOf []float64) {
	parent := make([]int, len(n.capFF))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, r := range n.res {
		if r.ohm == 0 {
			ra, rb := find(r.a), find(r.b)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	rep = make([]int, len(n.capFF))
	capOf = make([]float64, len(n.capFF))
	for i := range rep {
		rep[i] = find(i)
	}
	for i, c := range n.capFF {
		capOf[rep[i]] += c
	}
	return rep, capOf
}

func (n *Net) refElmoreTree(root int) ([]float64, error) {
	rep, capOf := n.refMerged()
	r := rep[root]

	adj := make(map[int][]resistor)
	edges := 0
	nodes := map[int]bool{r: true}
	for i := range n.capFF {
		nodes[rep[i]] = true
	}
	for _, e := range n.res {
		if e.ohm == 0 {
			continue
		}
		a, b := rep[e.a], rep[e.b]
		if a == b {
			continue
		}
		adj[a] = append(adj[a], resistor{a, b, e.ohm})
		adj[b] = append(adj[b], resistor{b, a, e.ohm})
		edges++
	}
	if edges != len(nodes)-1 {
		return nil, ErrNotTree
	}

	parentOf := make(map[int]int, len(nodes))
	parentR := make(map[int]float64, len(nodes))
	order := make([]int, 0, len(nodes))
	visited := map[int]bool{r: true}
	stack := []int{r}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for _, e := range adj[u] {
			if !visited[e.b] {
				visited[e.b] = true
				parentOf[e.b] = u
				parentR[e.b] = e.ohm
				stack = append(stack, e.b)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, ErrNotTree
	}
	down := make(map[int]float64, len(nodes))
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		down[u] += capOf[u]
		if u != r {
			down[parentOf[u]] += down[u]
		}
	}
	delay := make(map[int]float64, len(nodes))
	for _, u := range order {
		if u == r {
			delay[u] = 0
			continue
		}
		delay[u] = delay[parentOf[u]] + parentR[u]*down[u]*1e-15
	}
	out := make([]float64, len(n.capFF))
	for i := range out {
		out[i] = delay[rep[i]]
	}
	return out, nil
}

func (n *Net) refFirstMoment(root int) ([]float64, error) {
	rep, capOf := n.refMerged()
	r := rep[root]
	idx := map[int]int{}
	for i := range n.capFF {
		u := rep[i]
		if u == r {
			continue
		}
		if _, ok := idx[u]; !ok {
			idx[u] = len(idx)
		}
	}
	m := len(idx)
	if m == 0 {
		return make([]float64, len(n.capFF)), nil
	}
	g := linalg.NewSparse(m)
	connected := make([]bool, m)
	for _, e := range n.res {
		if e.ohm == 0 {
			continue
		}
		a, b := rep[e.a], rep[e.b]
		if a == b {
			continue
		}
		cond := 1 / e.ohm
		ia, aIn := idx[a]
		ib, bIn := idx[b]
		switch {
		case aIn && bIn:
			g.AddSym(ia, ib, -cond)
			g.Add(ia, ia, cond)
			g.Add(ib, ib, cond)
			connected[ia], connected[ib] = true, true
		case aIn:
			g.Add(ia, ia, cond)
			connected[ia] = true
		case bIn:
			g.Add(ib, ib, cond)
			connected[ib] = true
		}
	}
	for i, ok := range connected {
		if !ok {
			return nil, fmt.Errorf("rcnet: node group %d unreachable from driver", i)
		}
	}
	rhs := make([]float64, m)
	for u, i := range idx {
		rhs[i] = capOf[u] * 1e-15
	}
	tau, err := n.solveSPD(g, rhs, "first-moment")
	if err != nil {
		return nil, fmt.Errorf("rcnet: moment solve: %w", err)
	}
	out := make([]float64, len(n.capFF))
	for i := range out {
		u := rep[i]
		if u == r {
			out[i] = 0
			continue
		}
		out[i] = tau[idx[u]]
	}
	return out, nil
}

func (n *Net) refMoments(root int) (m1, m2 []float64, err error) {
	m1, err = n.refFirstMoment(root)
	if err != nil {
		return nil, nil, err
	}
	rep, capOf := n.refMerged()
	r := rep[root]
	idx := map[int]int{}
	for i := range n.capFF {
		u := rep[i]
		if u == r {
			continue
		}
		if _, ok := idx[u]; !ok {
			idx[u] = len(idx)
		}
	}
	mm := len(idx)
	if mm == 0 {
		return m1, make([]float64, len(n.capFF)), nil
	}
	g := linalg.NewSparse(mm)
	for _, e := range n.res {
		if e.ohm == 0 {
			continue
		}
		a, b := rep[e.a], rep[e.b]
		if a == b {
			continue
		}
		cond := 1 / e.ohm
		ia, aIn := idx[a]
		ib, bIn := idx[b]
		switch {
		case aIn && bIn:
			g.AddSym(ia, ib, -cond)
			g.Add(ia, ia, cond)
			g.Add(ib, ib, cond)
		case aIn:
			g.Add(ia, ia, cond)
		case bIn:
			g.Add(ib, ib, cond)
		}
	}
	m1rep := make(map[int]float64, mm)
	for orig := range n.capFF {
		u := rep[orig]
		if u != r {
			m1rep[u] = m1[orig]
		}
	}
	rhs := make([]float64, mm)
	for u, i := range idx {
		rhs[i] = capOf[u] * 1e-15 * m1rep[u]
	}
	sol, err := n.solveSPD(g, rhs, "second-moment")
	if err != nil {
		return nil, nil, fmt.Errorf("rcnet: second moment solve: %w", err)
	}
	m2 = make([]float64, len(n.capFF))
	for i := range m2 {
		u := rep[i]
		if u == r {
			continue
		}
		m2[i] = sol[idx[u]]
	}
	return m1, m2, nil
}

// randomTree builds a random RC tree of size nodes in the given shape,
// with resistors inserted in shuffled order and random orientation.
// Some edges are zero-ohm shorts and some resistors are shorted by a
// parallel zero-ohm path, so node merging is exercised too. The root
// is a random node.
func randomTree(rng *rand.Rand, shape string, size int) (*Net, int) {
	n := New()
	for i := 0; i < size; i++ {
		n.AddNode()
		if rng.Intn(4) != 0 {
			n.AddC(i, rng.Float64()*10)
		}
	}
	type edge struct{ a, b int }
	var es []edge
	for v := 1; v < size; v++ {
		var p int
		switch shape {
		case "chain":
			p = v - 1
		case "star":
			p = 0
		default:
			p = rng.Intn(v)
		}
		es = append(es, edge{p, v})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for _, e := range es {
		a, b := e.a, e.b
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		switch k := rng.Intn(10); {
		case k == 0:
			n.AddR(a, b, 0)
		case k == 1:
			n.AddR(a, b, 0)
			n.AddR(b, a, 1+rng.Float64()*500)
		default:
			n.AddR(a, b, 1+rng.Float64()*500)
		}
	}
	return n, rng.Intn(size)
}

// TestElmoreTreeMatchesMapReference requires the slice-based Elmore
// analysis to reproduce the map-based one exactly, delay for delay.
func TestElmoreTreeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2022))
	for _, shape := range []string{"chain", "star", "random"} {
		for _, size := range []int{1, 2, 3, 17, 200, 2500, 10000} {
			for trial := 0; trial < 3; trial++ {
				n, root := randomTree(rng, shape, size)
				want, werr := n.refElmoreTree(root)
				got, gerr := n.ElmoreTree(root)
				if werr != nil || gerr != nil {
					t.Fatalf("%s/%d/%d: errors %v (reference %v)", shape, size, trial, gerr, werr)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%d/%d node %d: delay %g, reference %g", shape, size, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestElmoreTreeRejectsLikeReference feeds both analyses the networks
// the tree formulation must refuse: meshes, orphans, parallel
// resistors, and a mesh whose extra edge balances an orphan in the
// edge count.
func TestElmoreTreeRejectsLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func() (*Net, int){
		"mesh": func() (*Net, int) {
			n, root := randomTree(rng, "random", 300)
			n.AddR(5, 250, 42)
			return n, root
		},
		"orphan": func() (*Net, int) {
			n, root := randomTree(rng, "random", 300)
			n.AddNode()
			return n, root
		},
		"parallel": func() (*Net, int) {
			n, root := randomTree(rng, "chain", 50)
			n.AddR(10, 11, 7)
			return n, root
		},
		"mesh+orphan": func() (*Net, int) {
			n, root := randomTree(rng, "random", 300)
			n.AddR(3, 150, 11)
			n.AddNode()
			return n, root
		},
	}
	for name, build := range cases {
		n, root := build()
		if _, err := n.refElmoreTree(root); !errors.Is(err, ErrNotTree) {
			t.Fatalf("%s: reference returned %v, want ErrNotTree", name, err)
		}
		if _, err := n.ElmoreTree(root); !errors.Is(err, ErrNotTree) {
			t.Errorf("%s: ElmoreTree returned %v, want ErrNotTree", name, err)
		}
	}
}

// TestMomentsMatchReference pins the shared reduced-system builder:
// first and second moments, solver statistics and unreachable-node
// errors equal the reference's on trees and meshes.
func TestMomentsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		size := 1 + rng.Intn(120)
		n, root := randomTree(rng, "random", size)
		if size > 3 && trial%2 == 1 {
			n.AddR(rng.Intn(size), rng.Intn(size), 1+rng.Float64()*100)
		}
		if trial%7 == 3 {
			n.AddNode()
		}
		ref := *n
		w1, w2, werr := ref.refMoments(root)
		g1, g2, gerr := n.Moments(root)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gerr, werr)
		}
		for i := range w1 {
			if g1[i] != w1[i] || g2[i] != w2[i] {
				t.Fatalf("trial %d node %d: moments (%g, %g), reference (%g, %g)", trial, i, g1[i], g2[i], w1[i], w2[i])
			}
		}
		if gs, ws := n.Stats(), ref.Stats(); gs.CGIterations != ws.CGIterations || len(gs.Solves) != len(ws.Solves) {
			t.Fatalf("trial %d: solver stats %+v, reference %+v", trial, gs, ws)
		}
		f1, ferr := n.FirstMoment(root)
		r1, rerr := ref.refFirstMoment(root)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("trial %d: first moment error %v, reference %v", trial, ferr, rerr)
		}
		for i := range r1 {
			if f1[i] != r1[i] {
				t.Fatalf("trial %d node %d: first moment %g, reference %g", trial, i, f1[i], r1[i])
			}
		}
	}
}
