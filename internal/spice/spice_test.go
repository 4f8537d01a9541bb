package spice

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ccdac/internal/extract"
	"ccdac/internal/place"
	"ccdac/internal/rcnet"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

func singleRC(t *testing.T, r, cfF float64) (*rcnet.Net, int, int) {
	t.Helper()
	n := rcnet.New()
	root := n.AddNode()
	load := n.AddNode()
	n.AddR(root, load, r)
	n.AddC(load, cfF)
	return n, root, load
}

func TestTransientSinglePoleExact(t *testing.T) {
	// v(t) = 1 - exp(-t/tau) for a single RC; check at a few instants.
	n, root, load := singleRC(t, 1000, 10) // tau = 10 ps
	tau := 1000 * 10e-15
	dt := tau / 200
	wf, err := Transient(n, root, dt, 1000, []int{load})
	if err != nil {
		t.Fatal(err)
	}
	for s := 99; s < len(wf.TimeSec); s += 200 {
		want := 1 - math.Exp(-wf.TimeSec[s]/tau)
		got := wf.V[0][s]
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("v(%g) = %g, want %g", wf.TimeSec[s], got, want)
		}
	}
}

func TestSettleTimeSinglePole(t *testing.T) {
	// Settling to within tol takes -tau ln(tol).
	n, root, load := singleRC(t, 1000, 10)
	tau := 1e-11
	tol := 1.0 / 1024
	got, err := SettleWithin(n, root, []int{load}, tol, tau)
	if err != nil {
		t.Fatal(err)
	}
	want := -tau * math.Log(tol)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("settle = %g, want %g", got, want)
	}
}

func TestTransientRejectsBadArgs(t *testing.T) {
	n, root, _ := singleRC(t, 100, 1)
	if _, err := Transient(n, root, 0, 10, nil); err == nil {
		t.Error("zero dt must be rejected")
	}
	if _, err := Transient(n, root, 1e-12, 0, nil); err == nil {
		t.Error("zero steps must be rejected")
	}
	if _, err := Transient(n, 99, 1e-12, 10, nil); err == nil {
		t.Error("bad root must be rejected")
	}
}

// TestTransientRejectsMesh: the simulator steps a tree, so a mesh (a
// resistor closing a cycle) or a node the driver cannot reach is an
// error wrapping rcnet.ErrNotTree.
func TestTransientRejectsMesh(t *testing.T) {
	n, root, load := singleRC(t, 100, 1)
	mid := n.AddNode()
	n.AddR(root, mid, 50)
	n.AddR(mid, load, 50)
	if _, err := Transient(n, root, 1e-13, 10, nil); !errors.Is(err, rcnet.ErrNotTree) {
		t.Errorf("mesh: got %v, want an error wrapping rcnet.ErrNotTree", err)
	}
	n, root, _ = singleRC(t, 100, 1)
	n.AddC(n.AddNode(), 1)
	if _, err := Transient(n, root, 1e-13, 10, nil); !errors.Is(err, rcnet.ErrNotTree) {
		t.Errorf("orphan node: got %v, want an error wrapping rcnet.ErrNotTree", err)
	}
}

func TestTransientMonotoneRise(t *testing.T) {
	// A passive RC step response never overshoots.
	n := rcnet.New()
	root := n.AddNode()
	prev := root
	var last int
	for i := 0; i < 5; i++ {
		v := n.AddNode()
		n.AddR(prev, v, 200)
		n.AddC(v, 3)
		prev, last = v, v
	}
	wf, err := Transient(n, root, 2e-13, 600, []int{last})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(wf.V[0]); s++ {
		if wf.V[0][s] < wf.V[0][s-1]-1e-12 {
			t.Fatalf("non-monotone step response at sample %d", s)
		}
		if wf.V[0][s] > 1+1e-9 {
			t.Fatalf("overshoot at sample %d: %g", s, wf.V[0][s])
		}
	}
}

// TestSettlingMatchesElmoreModel is the end-to-end validation of the
// paper's Eq. 15: settling an extracted spiral bit network to 1/4 LSB
// takes about ln(2^(N+2))·tau_Elmore. Elmore is a single-pole
// approximation, so agreement within a factor of 2 is the expectation.
func TestSettlingMatchesElmoreModel(t *testing.T) {
	const bits = 6
	m, err := place.NewSpiral(bits)
	if err != nil {
		t.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := extract.Extract(l)
	if err != nil {
		t.Fatal(err)
	}
	crit := sum.Bits[sum.CriticalBit()]
	tol := math.Pow(2, -float64(bits)) / 4 // 1/4 LSB
	simSettle, err := SettleWithin(crit.Net, crit.Root, crit.CellNodes, tol, crit.TauSec)
	if err != nil {
		t.Fatal(err)
	}
	modelSettle := extract.SettlingTime(bits, crit.TauSec)
	ratio := simSettle / modelSettle
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("simulated settle %g vs Elmore model %g (ratio %g)",
			simSettle, modelSettle, ratio)
	}
}

// settleByWaveform is SettleWithin's reference: each horizon
// re-simulated from zero into a Waveform and judged by SettleTime.
func settleByWaveform(n *rcnet.Net, root int, nodes []int, tol, tauHint float64) (float64, error) {
	dt := tauHint / 50
	for horizon := 40.0; horizon <= 2560; horizon *= 4 {
		wf, err := Transient(n, root, dt, int(horizon*tauHint/dt), nodes)
		if err != nil {
			return 0, err
		}
		if t, err := wf.SettleTime(tol); err == nil {
			return t, nil
		}
	}
	return 0, errors.New("not settled")
}

// criticalBit extracts the critical bit network of a routed spiral.
func criticalBit(t *testing.T, bits int) extract.BitNet {
	t.Helper()
	m, err := place.NewSpiral(bits)
	if err != nil {
		t.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := extract.Extract(l)
	if err != nil {
		t.Fatal(err)
	}
	return sum.Bits[sum.CriticalBit()]
}

// TestSettleWithinMatchesWaveform: stepping one stepper across the
// horizons returns the time the waveform reference returns, bit for
// bit — when the first horizon settles, when a later one does (a tau
// hint below the true tau), and on an extracted network — and both
// fail when no horizon settles.
func TestSettleWithinMatchesWaveform(t *testing.T) {
	rc, rcRoot, rcLoad := singleRC(t, 1000, 10) // tau = 10 ps
	crit := criticalBit(t, 6)
	for _, c := range []struct {
		name    string
		n       *rcnet.Net
		root    int
		nodes   []int
		tol     float64
		tauHint float64
		settles bool
	}{
		{"rc first horizon", rc, rcRoot, []int{rcLoad}, 1.0 / 1024, 1e-11, true},
		{"rc second horizon", rc, rcRoot, []int{rcLoad}, 1.0 / 1024, 1e-12, true},
		{"rc fourth horizon", rc, rcRoot, []int{rcLoad}, 1.0 / 1024, 4e-14, true},
		{"rc never", rc, rcRoot, []int{rcLoad}, 1.0 / 1024, 1e-15, false},
		{"6-bit critical bit", crit.Net, crit.Root, crit.CellNodes, 1.0 / 256, crit.TauSec, true},
		{"6-bit, low hint", crit.Net, crit.Root, crit.CellNodes, 1.0 / 256, crit.TauSec / 7, true},
	} {
		want, werr := settleByWaveform(c.n, c.root, c.nodes, c.tol, c.tauHint)
		got, err := SettleWithin(c.n, c.root, c.nodes, c.tol, c.tauHint)
		if (werr == nil) != c.settles || (err == nil) != c.settles {
			t.Errorf("%s: reference err %v, SettleWithin err %v; want settled = %v", c.name, werr, err, c.settles)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: SettleWithin = %.17g, waveform reference = %.17g", c.name, got, want)
		}
	}
}

// TestSettleWithinAllocsFlat: SettleWithin keeps no waveform, so it
// allocates only what building the tree and its stepper allocates,
// however many steps and observed nodes it takes.
func TestSettleWithinAllocsFlat(t *testing.T) {
	crit := criticalBit(t, 6)
	tol := 1.0 / 256
	setup := testing.AllocsPerRun(5, func() {
		tree, err := crit.Net.Tree(crit.Root)
		if err != nil {
			t.Fatal(err)
		}
		tree.Stepper(crit.TauSec / 50)
	})
	settle := testing.AllocsPerRun(5, func() {
		if _, err := SettleWithin(crit.Net, crit.Root, crit.CellNodes, tol, crit.TauSec); err != nil {
			t.Fatal(err)
		}
	})
	if settle > setup {
		t.Errorf("SettleWithin allocates %v times per call, building its tree and stepper %v", settle, setup)
	}
}

func TestNetlistFormat(t *testing.T) {
	n, root, _ := singleRC(t, 123.4, 5)
	nl := Netlist(n, root, "bit 6!")
	if !strings.Contains(nl, ".SUBCKT bit_6_ in") {
		t.Errorf("bad subckt header:\n%s", nl)
	}
	if !strings.Contains(nl, "R1 in n1 123.4") {
		t.Errorf("missing resistor line:\n%s", nl)
	}
	if !strings.Contains(nl, "C1 n1 0 5f") {
		t.Errorf("missing capacitor line:\n%s", nl)
	}
	if !strings.HasSuffix(strings.TrimSpace(nl), ".ENDS") {
		t.Error("missing .ENDS")
	}
}

func TestNetlistCountsMatchNetwork(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := extract.Extract(l)
	if err != nil {
		t.Fatal(err)
	}
	bn := sum.Bits[6]
	nl := Netlist(bn.Net, bn.Root, "bit6")
	rs, cs := len(bn.Net.Resistors()), 0
	for _, c := range bn.Net.Caps() {
		if c > 0 {
			cs++
		}
	}
	if got := strings.Count(nl, "\nR"); got != rs {
		t.Errorf("netlist has %d resistors, network %d", got, rs)
	}
	if got := strings.Count(nl, "\nC"); got != cs {
		t.Errorf("netlist has %d capacitors, network %d", got, cs)
	}
}

func TestSettleTimeErrors(t *testing.T) {
	wf := &Waveform{TimeSec: []float64{1, 2}, V: [][]float64{{0.1, 0.2}}}
	if _, err := wf.SettleTime(0.01); err == nil {
		t.Error("unsettled waveform must error")
	}
	if _, err := wf.SettleTime(0); err == nil {
		t.Error("zero tolerance must error")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b/c-7"); got != "a_b_c_7" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize(""); got != "net" {
		t.Errorf("sanitize empty = %q", got)
	}
}
