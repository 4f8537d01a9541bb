// Package rcnet models the RC interconnect networks created by
// bottom-plate routing and computes their Elmore (first-moment) delays,
// which the paper uses as the time constant tau in the 3dB-frequency
// model (Sec. III-B, Eq. 16).
//
// Two analyses are provided:
//
//   - ElmoreTree: the classical O(n) path-resistance formulation, valid
//     when the resistive network is a tree rooted at the driver.
//   - FirstMoment: the general formulation valid for arbitrary
//     connected RC networks (meshes arise when parallel wires are
//     cross-strapped): with the driver node grounded, solve
//     G·tau = C·1, where G is the reduced nodal conductance matrix and
//     C the nodal capacitance vector. On a tree both analyses agree
//     exactly, which the tests exploit.
package rcnet

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ccdac/internal/linalg"
)

// Net is an RC network under construction. Node 0 does not exist until
// added; nodes are numbered in insertion order.
type Net struct {
	// res lists the resistors in insertion order; the analyses derive
	// their adjacency from it, so the order fixes their summation order.
	res []resistor
	// capFF[i] is the grounded capacitance at node i in fF.
	capFF []float64
	// warn records solver degradations (CG→dense fallbacks) taken
	// while analyzing this net.
	warn []string
	// cgIters and cgFallbacks count solver effort and degradations,
	// surfaced structurally through Stats for the observability layer.
	cgIters, cgFallbacks int
	// cgSolves records each solve's effort and terminal accuracy.
	cgSolves []CGSolve
}

// CGSolve is one conjugate-gradient solve's telemetry: the iteration
// count and the final relative residual ‖b − A·x‖₂/‖b‖₂. For a solve
// that fell back to dense Cholesky, Residual is the residual CG had
// reached at its iteration cap (the fallback itself is direct).
type CGSolve struct {
	Iterations int
	Residual   float64
	Fallback   bool
}

// NetStats totals the iterative-solver effort and degradations
// accumulated across every analysis run on one net.
type NetStats struct {
	// CGIterations is the total conjugate-gradient iteration count.
	CGIterations int
	// CGFallbacks counts CG solves that exhausted their iteration
	// budget and fell back to the dense Cholesky factorization.
	CGFallbacks int
	// Solves lists each individual solve in execution order — the
	// per-solve distribution behind the numeric-health histograms.
	Solves []CGSolve
}

// Stats returns the net's accumulated solver statistics.
func (n *Net) Stats() NetStats {
	return NetStats{
		CGIterations: n.cgIters,
		CGFallbacks:  n.cgFallbacks,
		Solves:       append([]CGSolve(nil), n.cgSolves...),
	}
}

// Warnings returns the solver-degradation warnings recorded during
// analyses of this net (e.g. a CG non-convergence that fell back to a
// dense Cholesky solve).
func (n *Net) Warnings() []string {
	return append([]string(nil), n.warn...)
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

// Resistor is one resistive element, exposed for netlist export and
// transient simulation.
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

// ErrNotTree is returned by ElmoreTree when the resistive graph has a
// cycle or a node unreachable from the root.
var ErrNotTree = errors.New("rcnet: network is not a tree rooted at the driver")

// merged computes a union-find over zero-ohm resistors so both analyses
// treat ideal shorts as single electrical nodes. It returns the
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

// ElmoreTree computes the Elmore delay in seconds from the driver node
// (root) to every node, assuming the nonzero-resistance graph is a
// tree. Capacitances are interpreted in fF, resistances in ohms.
// It returns ErrNotTree for meshes or disconnected networks.
//
// All working state lives in slices indexed by node, so the analysis
// makes the same handful of allocations at any network size. The
// adjacency is a CSR array filled in resistor-insertion order, which
// fixes the DFS visit order and with it every floating-point
// accumulation below.
func (n *Net) ElmoreTree(root int) ([]float64, error) {
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
		return nil, ErrNotTree
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

	// DFS from root: accumulate downstream capacitance, then delays.
	// parent[u] < 0 marks u unvisited.
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
		return nil, ErrNotTree
	}
	// Downstream capacitance: reverse DFS order.
	down := make([]float64, nn)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		down[u] += capOf[u]
		if u != r {
			down[parent[u]] += down[u]
		}
	}
	// Delay: forward order. delay(child) = delay(parent) + R_edge * down(child).
	// Representatives get theirs first; every other node then copies
	// its representative's.
	out := make([]float64, nn)
	for _, u := range order {
		if u == r {
			continue
		}
		out[u] = out[parent[u]] + parentR[u]*down[u]*1e-15 // ohm*fF -> seconds
	}
	for i, u := range rep {
		out[i] = out[u]
	}
	return out, nil
}

// reduced is a net's nodal system with the driver grounded and
// zero-ohm shorts merged: the conductance matrix over the
// representatives outside the root's group, one row each, numbered in
// node order of first appearance.
type reduced struct {
	g      *linalg.Sparse
	rep    []int     // union-find representative of each node
	row    []int     // row of each representative in g; -1 for the root's group
	capRow []float64 // grounded capacitance of each row's group, fF
}

// reduce stamps the reduced system of the net driven at root. A group
// with no resistive path to the rest of the network makes the system
// singular and is reported as unreachable. When every node is merged
// into the root's group the system is empty and g is nil.
func (n *Net) reduce(root int) (*reduced, error) {
	rep, capOf := n.merged()
	r := rep[root]
	row := make([]int, len(rep))
	for i := range row {
		row[i] = -1
	}
	var capRow []float64
	for _, u := range rep {
		if u != r && row[u] < 0 {
			row[u] = len(capRow)
			capRow = append(capRow, capOf[u])
		}
	}
	s := &reduced{rep: rep, row: row, capRow: capRow}
	m := len(capRow)
	if m == 0 {
		return s, nil
	}
	g := linalg.NewSparse(m)
	connected := make([]bool, m)
	for _, e := range n.res {
		a, b, ok := joins(rep, e)
		if !ok {
			continue
		}
		cond := 1 / e.ohm
		ia, ib := row[a], row[b]
		switch {
		case ia >= 0 && ib >= 0:
			g.AddSym(ia, ib, -cond)
			g.Add(ia, ia, cond)
			g.Add(ib, ib, cond)
			connected[ia], connected[ib] = true, true
		case ia >= 0:
			g.Add(ia, ia, cond)
			connected[ia] = true
		case ib >= 0:
			g.Add(ib, ib, cond)
			connected[ib] = true
		}
	}
	for i, ok := range connected {
		if !ok {
			return nil, fmt.Errorf("rcnet: node group %d unreachable from driver", i)
		}
	}
	s.g = g
	return s, nil
}

// capRHS returns C·w over the reduced rows in farads (C·1 for nil w).
func (s *reduced) capRHS(w []float64) []float64 {
	rhs := make([]float64, len(s.capRow))
	for i, c := range s.capRow {
		rhs[i] = c * 1e-15 // fF -> F; tau in seconds
		if w != nil {
			rhs[i] *= w[i]
		}
	}
	return rhs
}

// expand maps a per-row solution back to every node; the root's group
// is zero. A nil x (empty system) expands to all zeros.
func (s *reduced) expand(x []float64) []float64 {
	out := make([]float64, len(s.rep))
	for i, u := range s.rep {
		if k := s.row[u]; k >= 0 {
			out[i] = x[k]
		}
	}
	return out
}

// FirstMoment computes the first moment of the impulse response at
// every node (the generalized Elmore delay, in seconds) for an
// arbitrary connected RC network driven at root, by solving
// G·tau = C·1 with the root grounded, using preconditioned CG.
func (n *Net) FirstMoment(root int) ([]float64, error) {
	s, err := n.reduce(root)
	if err != nil {
		return nil, err
	}
	tau, err := n.firstMoment(s)
	if err != nil {
		return nil, err
	}
	return s.expand(tau), nil
}

// firstMoment solves G·tau = C·1 on a reduced system (nil when empty).
func (n *Net) firstMoment(s *reduced) ([]float64, error) {
	if s.g == nil {
		return nil, nil
	}
	tau, err := n.solveSPD(s.g, s.capRHS(nil), "first-moment")
	if err != nil {
		return nil, fmt.Errorf("rcnet: moment solve: %w", err)
	}
	return tau, nil
}

// solveSPD solves g·x = rhs, preferring the Jacobi-preconditioned CG
// iteration and degrading to a dense Cholesky factorization when CG
// exhausts its iteration budget. The fallback is exact (direct), so
// results stay correct; it is recorded as a warning on the net because
// it signals an ill-conditioned extraction and costs O(n³).
func (n *Net) solveSPD(g *linalg.Sparse, rhs []float64, what string) ([]float64, error) {
	x, st, err := g.SolveCGStats(rhs, 1e-12, 40*g.N)
	n.cgIters += st.Iterations
	if err == nil {
		n.cgSolves = append(n.cgSolves, CGSolve{Iterations: st.Iterations, Residual: st.Residual})
		return x, nil
	}
	if !errors.Is(err, linalg.ErrNotConverged) {
		return nil, err
	}
	x, derr := linalg.SolveSPD(g.ToDense(), rhs)
	if derr != nil {
		return nil, errors.Join(err, derr)
	}
	n.cgFallbacks++
	n.cgSolves = append(n.cgSolves, CGSolve{Iterations: st.Iterations, Residual: st.Residual, Fallback: true})
	n.warn = append(n.warn, fmt.Sprintf(
		"%s CG solve did not converge; fell back to dense Cholesky (n=%d)", what, g.N))
	return x, nil
}

// Moments computes the first and second moments of each node's step
// response for an arbitrary connected RC network driven at root:
// m1 = G⁻¹·C·1 (the generalized Elmore delay, seconds) and
// m2 = G⁻¹·C·m1 (seconds²). The per-node dominant-pole estimate
// m2/m1 (the AWE single-pole fit) satisfies m1/2 ≤ m2/m1 ≤ τ_max for
// RC trees — the lower bound from the nonnegative impulse response
// (E[t²] ≥ E[t]²), the upper from m2 = Σaτ² ≤ τ_max·m1 — and is exact
// for a single pole.
func (n *Net) Moments(root int) (m1, m2 []float64, err error) {
	s, err := n.reduce(root)
	if err != nil {
		return nil, nil, err
	}
	tau, err := n.firstMoment(s)
	if err != nil {
		return nil, nil, err
	}
	if s.g == nil {
		return s.expand(nil), s.expand(nil), nil
	}
	// C·m1 with per-representative capacitance: every node of a group
	// shares its representative's m1, so one stamp per row suffices.
	sol, err := n.solveSPD(s.g, s.capRHS(tau), "second-moment")
	if err != nil {
		return nil, nil, fmt.Errorf("rcnet: second moment solve: %w", err)
	}
	return s.expand(tau), s.expand(sol), nil
}

// DominantTau returns the per-node dominant-pole time-constant
// estimate m2/m1 in seconds (zero where m1 is zero).
func (n *Net) DominantTau(root int) ([]float64, error) {
	m1, m2, err := n.Moments(root)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(m1))
	for i := range m1 {
		if m1[i] > 0 {
			out[i] = m2[i] / m1[i]
		}
	}
	return out, nil
}

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

// Delay computes the driving-point time constant of the network seen
// from root: prefers the exact tree formulation and falls back to the
// general first-moment solve for meshes. It returns the per-node delay
// vector in seconds.
func (n *Net) Delay(root int) ([]float64, error) {
	d, err := n.ElmoreTree(root)
	if err == nil {
		return d, nil
	}
	if !errors.Is(err, ErrNotTree) {
		return nil, err
	}
	return n.FirstMoment(root)
}
