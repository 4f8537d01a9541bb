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
}

// Transient simulates the unit-step response of the network driven at
// root: v_root(t >= 0) = 1 V, all nodes initially 0. Backward Euler
// with fixed step dt for steps samples, each step an exact solve on the
// network's tree (rcnet.Stepper). observe selects the recorded nodes.
// A network that is not a tree rooted at the driver returns an error
// wrapping rcnet.ErrNotTree.
func Transient(n *rcnet.Net, root int, dt float64, steps int, observe []int) (*Waveform, error) {
	if steps < 1 {
		return nil, fmt.Errorf("spice: need a positive step count, got %d", steps)
	}
	st, err := newStepper(n, root, dt)
	if err != nil {
		return nil, err
	}
	wf := &Waveform{
		TimeSec: make([]float64, 0, steps),
		V:       make([][]float64, len(observe)),
	}
	for s := 1; s <= steps; s++ {
		st.Step()
		wf.TimeSec = append(wf.TimeSec, float64(s)*dt)
		for oi, node := range observe {
			wf.V[oi] = append(wf.V[oi], st.V(node))
		}
	}
	return wf, nil
}

// newStepper builds the network's tree from the driver root and its
// Backward-Euler stepper at time step dt.
func newStepper(n *rcnet.Net, root int, dt float64) (*rcnet.Stepper, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("spice: need a positive dt, got %g", dt)
	}
	nn := n.NumNodes()
	if root < 0 || root >= nn {
		return nil, fmt.Errorf("spice: root %d out of range", root)
	}
	if nn == 1 {
		return nil, fmt.Errorf("spice: network has no nodes besides the driver")
	}
	tree, err := n.Tree(root)
	if err != nil {
		return nil, fmt.Errorf("spice: %w", err)
	}
	return tree.Stepper(dt), nil
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
// settle every node in nodes within tol of the final value: the step
// after the last one at which any of them was out of tolerance. The
// time step adapts to the supplied Elmore estimate tauHint: dt =
// tauHint/50 over a horizon of 40·tauHint, extended fourfold up to
// 2560·tauHint while the horizon's last step is out of tolerance. One
// stepper runs throughout and no waveform is kept, so memory does not
// grow with the step count; the result is bit for bit Transient's
// SettleTime at the first horizon that settles.
func SettleWithin(n *rcnet.Net, root int, nodes []int, tol, tauHint float64) (float64, error) {
	if tauHint <= 0 {
		return 0, fmt.Errorf("spice: need a positive tau hint")
	}
	if tol <= 0 {
		return 0, fmt.Errorf("spice: tolerance must be positive")
	}
	dt := tauHint / 50
	st, err := newStepper(n, root, dt)
	if err != nil {
		return 0, err
	}
	s, lastOut := 0, 0
	for horizon := 40.0; horizon <= 2560; horizon *= 4 {
		for steps := int(horizon * tauHint / dt); s < steps; {
			st.Step()
			s++
			for _, node := range nodes {
				if math.Abs(st.V(node)-1) > tol {
					lastOut = s
					break
				}
			}
		}
		if lastOut < s {
			return float64(lastOut+1) * dt, nil
		}
	}
	return 0, fmt.Errorf("spice: network did not settle within 2560 tau")
}
