// Package spice bridges the extracted RC networks to circuit-level
// tooling: it exports SPICE netlists of per-bit charging networks and
// provides a Backward-Euler transient simulator used to validate the
// Elmore-delay settling model (Sec. III-B) end to end — the paper's
// t_settle = ln(2^(N+2))·τ criterion is checked against an actual
// step-response simulation of the same network.
package spice

import (
	"fmt"
	"math"
	"strings"

	"ccdac/internal/linalg"
	"ccdac/internal/rcnet"
)

// Netlist renders an RC network as a SPICE subcircuit. The driver node
// becomes the subcircuit's input port; every node with nonzero
// capacitance gets a C element to node 0 (ground). Resistances are in
// ohms, capacitances in femtofarads (fF suffix).
func Netlist(n *rcnet.Net, root int, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* extracted charging network: %s\n", name)
	fmt.Fprintf(&b, ".SUBCKT %s in\n", sanitize(name))
	nodeName := func(i int) string {
		if i == root {
			return "in"
		}
		return fmt.Sprintf("n%d", i)
	}
	for i, r := range n.Resistors() {
		fmt.Fprintf(&b, "R%d %s %s %.6g\n", i+1, nodeName(r.A), nodeName(r.B), r.Ohm)
	}
	ci := 0
	for i, c := range n.Caps() {
		if c <= 0 {
			continue
		}
		ci++
		fmt.Fprintf(&b, "C%d %s 0 %.6gf\n", ci, nodeName(i), c)
	}
	b.WriteString(".ENDS\n")
	return b.String()
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "net"
	}
	return string(out)
}

// Waveform is the sampled step response of a transient simulation.
type Waveform struct {
	// TimeSec holds the sample instants.
	TimeSec []float64
	// V holds one voltage trace per observed node, normalized to the
	// 1 V input step.
	V [][]float64
	// Nodes are the observed node indices, parallel to V.
	Nodes []int
}

// shortOhm replaces ideal shorts so the Backward-Euler system stays
// nonsingular; it is far below any real wire resistance.
const shortOhm = 1e-6

// Transient simulates the unit-step response of the network driven at
// root: v_root(t >= 0) = 1 V, all nodes initially 0. Backward Euler
// with fixed step dt for steps samples. observe selects the recorded
// nodes (nil records every node).
func Transient(n *rcnet.Net, root int, dt float64, steps int, observe []int) (*Waveform, error) {
	if dt <= 0 || steps < 1 {
		return nil, fmt.Errorf("spice: need positive dt and steps, got %g, %d", dt, steps)
	}
	nn := n.NumNodes()
	if root < 0 || root >= nn {
		return nil, fmt.Errorf("spice: root %d out of range", root)
	}
	if observe == nil {
		observe = make([]int, 0, nn)
		for i := 0; i < nn; i++ {
			if i != root {
				observe = append(observe, i)
			}
		}
	}
	// Reduced system over non-root nodes: (G + C/dt) v' = (C/dt) v + b,
	// b_i = sum of conductances from i to the (1 V) root.
	idx := make([]int, nn)
	for i := range idx {
		idx[i] = -1
	}
	m := 0
	for i := 0; i < nn; i++ {
		if i != root {
			idx[i] = m
			m++
		}
	}
	if m == 0 {
		return nil, fmt.Errorf("spice: network has no nodes besides the driver")
	}
	sys := linalg.NewSparse(m)
	b := make([]float64, m)
	for _, r := range n.Resistors() {
		ohm := r.Ohm
		if ohm < shortOhm {
			ohm = shortOhm
		}
		g := 1 / ohm
		ia, ib := idx[r.A], idx[r.B]
		switch {
		case ia >= 0 && ib >= 0:
			sys.AddSym(ia, ib, -g)
			sys.Add(ia, ia, g)
			sys.Add(ib, ib, g)
		case ia >= 0:
			sys.Add(ia, ia, g)
			b[ia] += g
		case ib >= 0:
			sys.Add(ib, ib, g)
			b[ib] += g
		}
	}
	caps := n.Caps()
	cOverDt := make([]float64, m)
	for i := 0; i < nn; i++ {
		if idx[i] >= 0 {
			cOverDt[idx[i]] = caps[i] * 1e-15 / dt
		}
	}
	for i := 0; i < m; i++ {
		if sys.At(i, i) == 0 && cOverDt[i] == 0 {
			return nil, fmt.Errorf("spice: node %d is floating", i)
		}
		sys.Add(i, i, cOverDt[i])
	}

	v := make([]float64, m)
	wf := &Waveform{
		TimeSec: make([]float64, 0, steps),
		Nodes:   append([]int(nil), observe...),
		V:       make([][]float64, len(observe)),
	}
	rhs := make([]float64, m)
	for s := 1; s <= steps; s++ {
		for i := 0; i < m; i++ {
			rhs[i] = cOverDt[i]*v[i] + b[i]
		}
		next, _, err := sys.SolveCG(rhs, 1e-12, 0)
		if err != nil {
			return nil, fmt.Errorf("spice: step %d: %w", s, err)
		}
		v = next
		wf.TimeSec = append(wf.TimeSec, float64(s)*dt)
		for oi, node := range observe {
			val := 1.0
			if idx[node] >= 0 {
				val = v[idx[node]]
			}
			wf.V[oi] = append(wf.V[oi], val)
		}
	}
	return wf, nil
}

// SettleTime returns the earliest sampled time at which every observed
// node stays within tol of the 1 V final value for the remainder of
// the waveform. It returns an error if the waveform never settles.
func (w *Waveform) SettleTime(tol float64) (float64, error) {
	if tol <= 0 {
		return 0, fmt.Errorf("spice: tolerance must be positive")
	}
	last := -1
	for s := len(w.TimeSec) - 1; s >= 0; s-- {
		ok := true
		for _, trace := range w.V {
			if math.Abs(trace[s]-1) > tol {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		last = s
	}
	if last < 0 {
		return 0, fmt.Errorf("spice: waveform not settled to %g within %g s", tol, w.TimeSec[len(w.TimeSec)-1])
	}
	return w.TimeSec[last], nil
}

// SettleWithin simulates the step response and returns the time to
// settle every node in nodes within tol of the final value. The time
// step adapts to the supplied Elmore estimate tauHint (dt = tauHint/50,
// horizon = 40·tauHint, extended if needed).
func SettleWithin(n *rcnet.Net, root int, nodes []int, tol, tauHint float64) (float64, error) {
	if tauHint <= 0 {
		return 0, fmt.Errorf("spice: need a positive tau hint")
	}
	dt := tauHint / 50
	horizon := 40.0
	for attempt := 0; attempt < 4; attempt++ {
		steps := int(horizon * tauHint / dt)
		wf, err := Transient(n, root, dt, steps, nodes)
		if err != nil {
			return 0, err
		}
		if t, err := wf.SettleTime(tol); err == nil {
			return t, nil
		}
		horizon *= 4
	}
	return 0, fmt.Errorf("spice: network did not settle within %g tau", horizon)
}
