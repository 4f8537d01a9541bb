// Package rcnet models the RC interconnect networks created by
// bottom-plate routing and analyzes them as trees: the Elmore
// (first-moment) delays the paper uses as the time constant tau in the
// 3dB-frequency model (Sec. III-B, Eqs. 15–16), and the Backward-Euler
// step of the transient simulator that checks that model.
//
// Every network the flow extracts is a tree rooted at the driver: the
// paper's parallel-wire routing divides one edge's wire resistance by
// p and its via resistance by p² instead of cross-strapping p wires
// into a mesh. Net.Tree builds that tree once (ideal shorts merged,
// CSR adjacency, DFS order from the driver) and both analyses run on
// it in O(n). A network with a cycle, or a node the driver cannot
// reach, is rejected with ErrNotTree.
package rcnet

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Net is an RC network under construction. Node 0 does not exist until
// added; nodes are numbered in insertion order.
type Net struct {
	// res lists the resistors in insertion order; the analyses derive
	// their adjacency from it, so the order fixes their summation order.
	res []resistor
	// capFF[i] is the grounded capacitance at node i in fF.
	capFF []float64
}

type resistor struct {
	a, b int
	ohm  float64
}

// New returns an empty network.
func New() *Net { return &Net{} }

// Grow reserves room for the given numbers of further nodes and
// resistors, so a caller that knows the network's size builds it
// without reallocating.
func (n *Net) Grow(nodes, resistors int) {
	n.capFF = slices.Grow(n.capFF, nodes)
	n.res = slices.Grow(n.res, resistors)
}

// AddNode adds a node and returns its index.
func (n *Net) AddNode() int {
	n.capFF = append(n.capFF, 0)
	return len(n.capFF) - 1
}

// NumNodes returns the number of nodes.
func (n *Net) NumNodes() int { return len(n.capFF) }

// AddR connects nodes a and b with a resistor of the given ohms.
// Zero-ohm resistors are permitted (ideal shorts used for via-free
// junctions) and handled by node merging during analysis.
func (n *Net) AddR(a, b int, ohm float64) {
	if a < 0 || a >= len(n.capFF) || b < 0 || b >= len(n.capFF) {
		panic(fmt.Sprintf("rcnet: resistor endpoints (%d,%d) out of range n=%d", a, b, len(n.capFF)))
	}
	if ohm < 0 {
		panic(fmt.Sprintf("rcnet: negative resistance %g", ohm))
	}
	n.res = append(n.res, resistor{a, b, ohm})
}

// AddC adds grounded capacitance (fF) at node a. Multiple additions accumulate.
func (n *Net) AddC(a int, fF float64) {
	if fF < 0 {
		panic(fmt.Sprintf("rcnet: negative capacitance %g", fF))
	}
	n.capFF[a] += fF
}

// CapAt returns the accumulated grounded capacitance at node a in fF.
func (n *Net) CapAt(a int) float64 { return n.capFF[a] }

// TotalCapFF returns the total capacitance of the network in fF.
func (n *Net) TotalCapFF() float64 {
	s := 0.0
	for _, c := range n.capFF {
		s += c
	}
	return s
}

// Resistor is one resistive element, exposed for netlist export.
type Resistor struct {
	A, B int
	Ohm  float64
}

// Resistors returns the network's resistive elements in insertion order.
func (n *Net) Resistors() []Resistor {
	out := make([]Resistor, len(n.res))
	for i, r := range n.res {
		out[i] = Resistor{A: r.a, B: r.b, Ohm: r.ohm}
	}
	return out
}

// Caps returns a copy of the per-node grounded capacitances in fF.
func (n *Net) Caps() []float64 {
	out := make([]float64, len(n.capFF))
	copy(out, n.capFF)
	return out
}

// ErrNotTree is returned by Tree and ElmoreTree when the resistive
// graph has a cycle or a node unreachable from the root.
var ErrNotTree = errors.New("rcnet: network is not a tree rooted at the driver")

// merged computes a union-find over zero-ohm resistors so the tree
// treats ideal shorts as single electrical nodes. It returns the
// representative for each node and the per-representative capacitance.
func (n *Net) merged() (rep []int, capOf []float64) {
	rep = make([]int, len(n.capFF))
	for i := range rep {
		rep[i] = i
	}
	find := func(x int) int {
		for rep[x] != x {
			rep[x] = rep[rep[x]]
			x = rep[x]
		}
		return x
	}
	for _, r := range n.res {
		if r.ohm == 0 {
			ra, rb := find(r.a), find(r.b)
			if ra != rb {
				rep[ra] = rb
			}
		}
	}
	// Full path compression in place: every entry ends at its root.
	for i := range rep {
		rep[i] = find(i)
	}
	capOf = make([]float64, len(n.capFF))
	for i, c := range n.capFF {
		capOf[rep[i]] += c
	}
	return rep, capOf
}

// joins returns the representatives a resistor connects, and false
// for a zero-ohm short or a resistor shorted by a parallel zero-ohm
// path: neither joins two distinct electrical nodes.
func joins(rep []int, e resistor) (a, b int, ok bool) {
	if e.ohm == 0 {
		return 0, 0, false
	}
	a, b = rep[e.a], rep[e.b]
	return a, b, a != b
}

// Tree is a net's resistive tree rooted at the driver, with ideal
// shorts merged: each group of nodes joined by zero-ohm resistors is
// one electrical node, named by its union-find representative. Build
// one with Net.Tree; it is read-only, so a copy shares its arrays.
type Tree struct {
	// rep[i] is node i's representative; root is the driver's.
	rep  []int
	root int
	// order lists the representatives in DFS preorder from root, so
	// every parent precedes its children.
	order []int
	// parent[u] is u's parent representative and parentR[u] the ohms
	// of the resistor joining them; the root is its own parent.
	parent  []int
	parentR []float64
	// capOf[u] is the grounded capacitance of u's group in fF.
	capOf []float64
}

// Tree builds the net's resistive tree from the driver node (root).
// It returns ErrNotTree for meshes or disconnected networks.
//
// All working state lives in slices indexed by node, so the build
// makes the same handful of allocations at any network size. The
// adjacency is a CSR array filled in resistor-insertion order, which
// fixes the DFS visit order and with it every floating-point
// accumulation the analyses make.
func (n *Net) Tree(root int) (Tree, error) {
	rep, capOf := n.merged()
	nn := len(rep)
	r := rep[root]

	// A tree over the distinct representatives (union-find roots) has
	// exactly one edge fewer than it has nodes.
	reps := 0
	for i, u := range rep {
		if u == i {
			reps++
		}
	}
	// start[u]..start[u+1] will index u's neighbors in to/ohm.
	start := make([]int, nn+1)
	edges := 0
	for _, e := range n.res {
		if a, b, ok := joins(rep, e); ok {
			start[a+1]++
			start[b+1]++
			edges++
		}
	}
	if edges != reps-1 {
		return Tree{}, ErrNotTree
	}
	for u := 0; u < nn; u++ {
		start[u+1] += start[u]
	}
	to := make([]int, 2*edges)
	ohm := make([]float64, 2*edges)
	// Fill using start[u] as u's cursor, then shift the advanced
	// cursors (each now the next node's start) back into place.
	for _, e := range n.res {
		if a, b, ok := joins(rep, e); ok {
			to[start[a]], ohm[start[a]] = b, e.ohm
			start[a]++
			to[start[b]], ohm[start[b]] = a, e.ohm
			start[b]++
		}
	}
	copy(start[1:], start[:nn])
	start[0] = 0

	// DFS from root. parent[u] < 0 marks u unvisited.
	parent := make([]int, nn)
	for i := range parent {
		parent[i] = -1
	}
	parentR := make([]float64, nn)
	order := make([]int, 0, reps)
	stack := make([]int, 1, reps)
	stack[0] = r
	parent[r] = r
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		for k := start[u]; k < start[u+1]; k++ {
			if v := to[k]; parent[v] < 0 {
				parent[v] = u
				parentR[v] = ohm[k]
				stack = append(stack, v)
			}
		}
	}
	if len(order) != reps {
		return Tree{}, ErrNotTree
	}
	return Tree{rep: rep, root: r, order: order, parent: parent, parentR: parentR, capOf: capOf}, nil
}

// Elmore returns the Elmore delay in seconds from the driver to every
// node, with capacitances in fF and resistances in ohms:
// τ(v) = τ(parent) + R_edge·(capacitance downstream of v).
func (t Tree) Elmore() []float64 {
	nn := len(t.rep)
	// Downstream capacitance: reverse DFS order.
	down := make([]float64, nn)
	for i := len(t.order) - 1; i >= 0; i-- {
		u := t.order[i]
		down[u] += t.capOf[u]
		if u != t.root {
			down[t.parent[u]] += down[u]
		}
	}
	// Delay: forward order. Representatives get theirs first; every
	// other node then copies its representative's.
	out := make([]float64, nn)
	for _, u := range t.order {
		if u == t.root {
			continue
		}
		out[u] = out[t.parent[u]] + t.parentR[u]*down[u]*1e-15 // ohm*fF -> seconds
	}
	for i, u := range t.rep {
		out[i] = out[u]
	}
	return out
}

// ElmoreTree computes the Elmore delay in seconds from the driver node
// (root) to every node: Tree, then Elmore. It returns ErrNotTree for
// meshes or disconnected networks.
func (n *Net) ElmoreTree(root int) ([]float64, error) {
	t, err := n.Tree(root)
	if err != nil {
		return nil, err
	}
	return t.Elmore(), nil
}

// Stepper advances a tree's unit-step response by Backward Euler. The
// driver's group is held at 1 V and every other node starts at 0 V;
// each Step solves
//
//	(G + C/dt)·v' = (C/dt)·v + b
//
// exactly, where G is the conductance matrix over the non-driver nodes
// and b holds each node's conductance to the driver. On a tree the
// system eliminates leaf to root and substitutes root to leaf in O(n),
// and its pivots depend only on dt, so Stepper factors them once.
type Stepper struct {
	t Tree
	// Per representative u: cdt[u] = C_u/dt in siemens and, below the
	// root, invD[u] = 1/d_u and pass[u] = g_u/d_u, with d_u u's pivot
	// and g_u its conductance to its parent: the share of u's
	// eliminated right-hand side its parent gets, and of its parent's
	// voltage u gets back.
	cdt, invD, pass []float64
	// v[u] is u's voltage after the last step (the root's is 1); y is
	// the elimination's right-hand side, zero between steps.
	v, y []float64
}

// Stepper factors the Backward-Euler system for time step dt seconds.
func (t Tree) Stepper(dt float64) *Stepper {
	nn := len(t.rep)
	s := &Stepper{
		t:    t,
		cdt:  make([]float64, nn),
		invD: make([]float64, nn),
		pass: make([]float64, nn),
		v:    make([]float64, nn),
		y:    make([]float64, nn),
	}
	// e[u] collects u's pivot less its own edge: C_u/dt plus, per
	// child c, g_c in series with e[c], which is what eliminating c's
	// subtree leaves on u's diagonal. Every term is non-negative, so
	// the pivots d_u = g_u + e[u] suffer no cancellation.
	e := s.y
	for i := len(t.order) - 1; i >= 0; i-- {
		u := t.order[i]
		s.cdt[u] = t.capOf[u] * 1e-15 / dt // fF -> F
		e[u] += s.cdt[u]
		if u == t.root {
			continue
		}
		g := 1 / t.parentR[u]
		d := g + e[u]
		s.invD[u] = 1 / d
		s.pass[u] = g / d
		e[t.parent[u]] += s.pass[u] * e[u]
	}
	clear(e)
	s.v[t.root] = 1
	return s
}

// Step advances the response by one time step.
func (s *Stepper) Step() {
	t, v, y := s.t, s.v, s.y
	below := t.order[1:] // every representative but the root
	// Leaf to root: y_u = (C_u/dt)·v_u + Σ_children pass_c·y_c.
	for i := len(below) - 1; i >= 0; i-- {
		u := below[i]
		y[u] += s.cdt[u] * v[u]
		y[t.parent[u]] += s.pass[u] * y[u]
	}
	y[t.root] = 0
	// Root to leaf: d_u·v_u = y_u + g_u·v_parent.
	for _, u := range below {
		v[u] = y[u]*s.invD[u] + s.pass[u]*v[t.parent[u]]
		y[u] = 0
	}
}

// V returns node's voltage after the last step.
func (s *Stepper) V(node int) float64 { return s.v[s.t.rep[node]] }

// MaxDelay returns the maximum delay over the given node set from the
// per-node delay slice. Nodes outside the slice range are ignored.
func MaxDelay(delays []float64, nodes []int) float64 {
	m := 0.0
	for _, i := range nodes {
		if i >= 0 && i < len(delays) {
			m = math.Max(m, delays[i])
		}
	}
	return m
}
