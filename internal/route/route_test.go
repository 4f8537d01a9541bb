package route

import (
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

func routed(t *testing.T, bits int, style place.Style) *Layout {
	t.Helper()
	var m *ccmatrix.Matrix
	var err error
	switch style {
	case place.Spiral:
		m, err = place.NewSpiral(bits)
	case place.Chessboard:
		m, err = place.NewChessboard(bits)
	case place.BlockChessboard:
		m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
	default:
		m, err = place.NewAnnealed(bits, place.AnnealConfig{Seed: 1, Moves: 2000})
	}
	if err != nil {
		t.Fatal(err)
	}
	l, err := Route(m, tech.FinFET12(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRouteSpiralBasics(t *testing.T) {
	l := routed(t, 6, place.Spiral)
	if len(l.Wires) == 0 || len(l.Vias) == 0 {
		t.Fatal("routing produced no wires or vias")
	}
	if l.Width <= 0 || l.Height <= 0 {
		t.Fatal("degenerate layout extents")
	}
	// Every bit gets a terminal at its rail.
	for bit := 0; bit <= 6; bit++ {
		term := l.Terminals[bit]
		if term.Y != l.railY[bit] {
			t.Errorf("bit %d terminal y=%g, want rail %g", bit, term.Y, l.railY[bit])
		}
		if term.X < 0 || term.X > l.Width {
			t.Errorf("bit %d terminal x=%g outside layout", bit, term.X)
		}
	}
}

func TestEveryBitHasInputVia(t *testing.T) {
	for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
		l := routed(t, 6, style)
		inputs := map[int]int{}
		for _, v := range l.Vias {
			if v.Input {
				inputs[v.Bit]++
			}
		}
		for bit := 0; bit <= 6; bit++ {
			if inputs[bit] != 1 {
				t.Errorf("%v: bit %d has %d input vias, want 1", style, bit, inputs[bit])
			}
		}
	}
}

func TestSpiralUsesFewestVias(t *testing.T) {
	// The paper's central claim: S << BC << chessboard in via count.
	s := routed(t, 8, place.Spiral)
	bc := routed(t, 8, place.BlockChessboard)
	cb := routed(t, 8, place.Chessboard)
	if !(s.ViaCuts() < bc.ViaCuts() && bc.ViaCuts() < cb.ViaCuts()) {
		t.Errorf("via ordering violated: S=%d BC=%d CB=%d", s.ViaCuts(), bc.ViaCuts(), cb.ViaCuts())
	}
	if cb.ViaCuts() < 4*s.ViaCuts() {
		t.Errorf("chessboard vias %d not >> spiral %d", cb.ViaCuts(), s.ViaCuts())
	}
}

func TestSpiralShorterWirelength(t *testing.T) {
	s := routed(t, 8, place.Spiral)
	cb := routed(t, 8, place.Chessboard)
	if s.TotalWirelength() >= cb.TotalWirelength() {
		t.Errorf("spiral wirelength %g not below chessboard %g",
			s.TotalWirelength(), cb.TotalWirelength())
	}
}

func TestWiresAreManhattanAndOnReservedLayers(t *testing.T) {
	for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
		l := routed(t, 6, style)
		for _, w := range l.Wires {
			if !w.Seg.IsManhattan() {
				t.Fatalf("%v: wire %+v not Manhattan", style, w)
			}
			if w.Seg.Len() == 0 {
				continue
			}
			if got := l.Tech.Layers[w.Layer].Dir; got != w.Seg.Dir() {
				t.Fatalf("%v: %v wire on layer %s runs %v",
					style, w.Kind, l.Tech.Layers[w.Layer].Name, w.Seg.Dir())
			}
		}
	}
}

func TestChannelWidthsGrowWithTracks(t *testing.T) {
	cb := routed(t, 6, place.Chessboard)
	sp := routed(t, 6, place.Spiral)
	cbSlots, spSlots := 0, 0
	for _, s := range cb.ChannelSlots {
		cbSlots += s
	}
	for _, s := range sp.ChannelSlots {
		spSlots += s
	}
	if cbSlots <= spSlots {
		t.Errorf("chessboard slots %d not above spiral %d", cbSlots, spSlots)
	}
	if cb.Width <= sp.Width {
		t.Errorf("chessboard width %g not above spiral %g (channels must widen)", cb.Width, sp.Width)
	}
}

func TestParallelWiresScaleViasAndSlots(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	base, err := Route(m, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := make([]int, 7)
	par[6] = 2
	dbl, err := Route(m, tch, par)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-6 vias carry Par=2 -> 4 cuts each.
	for _, v := range dbl.Vias {
		if v.Bit == 6 && v.Cuts() != 4 {
			t.Errorf("bit-6 via has %d cuts, want 4", v.Cuts())
		}
		if v.Bit != 6 && v.Cuts() != 1 {
			t.Errorf("bit-%d via has %d cuts, want 1", v.Bit, v.Cuts())
		}
	}
	if dbl.ViaCuts() <= base.ViaCuts() {
		t.Error("parallel routing must increase via cut count")
	}
	// Bit-6 wires carry Par=2.
	for _, w := range dbl.Wires {
		if w.Bit == 6 && w.Par != 2 {
			t.Errorf("bit-6 wire Par=%d, want 2", w.Par)
		}
	}
}

func TestRouteRejectsBadInputs(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Route(m, tech.FinFET12(), []int{1, 1}); err == nil {
		t.Error("wrong par length must be rejected")
	}
	bad := tech.FinFET12()
	bad.ViaROhm = 0
	if _, err := Route(m, bad, nil); err == nil {
		t.Error("invalid technology must be rejected")
	}
	empty := ccmatrix.New(4, 4, 4, 1)
	if _, err := Route(empty, tech.FinFET12(), nil); err == nil {
		t.Error("incomplete placement must be rejected")
	}
}

func TestTrunksEndAtRails(t *testing.T) {
	l := routed(t, 6, place.BlockChessboard)
	// For every bit, some trunk wire must reach the bit's rail y.
	reached := map[int]bool{}
	for _, w := range l.Wires {
		if w.Kind != KindTrunk {
			continue
		}
		lo := math.Min(w.Seg.A.Y, w.Seg.B.Y)
		if lo == l.railY[w.Bit] {
			reached[w.Bit] = true
		}
	}
	for bit := 0; bit <= 6; bit++ {
		if !reached[bit] {
			t.Errorf("no trunk of bit %d reaches its rail", bit)
		}
	}
}

func TestTrunkSplitAtTaps(t *testing.T) {
	// Branch junction points must coincide with trunk segment endpoints
	// so extraction sees connected networks.
	l := routed(t, 6, place.Chessboard)
	trunkEnd := map[[2]int64]bool{}
	q := func(v float64) int64 { return int64(math.Round(v * 1000)) }
	for _, w := range l.Wires {
		if w.Kind == KindTrunk {
			trunkEnd[[2]int64{q(w.Seg.A.X), q(w.Seg.A.Y)}] = true
			trunkEnd[[2]int64{q(w.Seg.B.X), q(w.Seg.B.Y)}] = true
		}
	}
	for _, v := range l.Vias {
		if v.Input {
			continue
		}
		if v.LayerA == l.Tech.HorizontalLayer() && !trunkEnd[[2]int64{q(v.At.X), q(v.At.Y)}] {
			t.Fatalf("branch via at %v does not land on a trunk endpoint", v.At)
		}
	}
}

func TestDirectStubsForBottomRings(t *testing.T) {
	// Spiral MSB forms a ring touching the bottom row: it must route as
	// a Direct cluster with no channel usage.
	l := routed(t, 6, place.Spiral)
	foundDirect := false
	for _, c := range l.Clusters {
		if c.Bit == 6 && c.Direct {
			foundDirect = true
			if c.Channel != -1 {
				t.Error("direct cluster must not claim a channel")
			}
		}
	}
	if !foundDirect {
		t.Error("spiral MSB did not route as a direct bottom stub")
	}
}

func TestTopPlateViaFree(t *testing.T) {
	l := routed(t, 6, place.Spiral)
	topWires := 0
	for _, w := range l.Wires {
		if w.Bit == TopPlateBit {
			topWires++
			if w.Kind != KindTop {
				t.Error("top-plate wire with wrong kind")
			}
		}
	}
	// cols column wires + cols-1 links.
	if topWires != 8+7 {
		t.Errorf("top-plate wires = %d, want 15", topWires)
	}
	for _, v := range l.Vias {
		if v.Bit == TopPlateBit {
			t.Error("top-plate routing must be via-free")
		}
	}
}

func TestAllCellsCoveredByClusters(t *testing.T) {
	// Every group of every capacitor belongs to exactly one cluster
	// (anchor or partner): routing completion guarantee of Algorithm 1.
	for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
		l := routed(t, 6, style)
		seen := map[interface{}]int{}
		for _, c := range l.Clusters {
			seen[c.Anchor]++
			for _, p := range c.Partners {
				seen[p.G]++
			}
		}
		for bit, list := range l.Groups {
			for _, g := range list {
				if seen[g] != 1 {
					t.Fatalf("%v: C_%d group covered %d times", style, bit, seen[g])
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindAbut: "abut", KindBranch: "branch", KindTrunk: "trunk",
		KindBridge: "bridge", KindTop: "top", Kind(42): "kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestGeometryWithinBounds(t *testing.T) {
	for _, style := range []place.Style{place.Spiral, place.Chessboard} {
		l := routed(t, 8, style)
		for _, w := range l.Wires {
			for _, p := range []geom.Pt{w.Seg.A, w.Seg.B} {
				if p.X < -1e-9 || p.X > l.Width+1e-9 || p.Y < -1e-9 || p.Y > l.Height+1e-9 {
					t.Fatalf("%v: wire point %v outside %gx%g", style, p, l.Width, l.Height)
				}
			}
		}
	}
}

func TestTrackSharingMergesSameBitClusters(t *testing.T) {
	// No two non-direct clusters of the same capacitor may share a
	// channel after track sharing: they merge onto one trunk.
	for _, style := range []place.Style{place.Chessboard, place.BlockChessboard} {
		l := routed(t, 8, style)
		seen := map[[2]int]bool{}
		for _, c := range l.Clusters {
			if c.Direct {
				continue
			}
			k := [2]int{c.Bit, c.Channel}
			if seen[k] {
				t.Fatalf("%v: two clusters of bit %d in channel %d", style, c.Bit, c.Channel)
			}
			seen[k] = true
		}
	}
}

func TestAblationOptionsQuantifyAlgorithm1(t *testing.T) {
	// The naive router (no partnering, no bottom stubs) must cost more
	// channel tracks than Algorithm 1, and the full router must never
	// be worse. This is the ablation behind the paper's channel
	// selection and bottom tie-breakers.
	tch := tech.FinFET12()
	for _, mk := range []func() (*ccmatrix.Matrix, error){
		func() (*ccmatrix.Matrix, error) { return place.NewSpiral(8) },
		func() (*ccmatrix.Matrix, error) {
			return place.NewBlockChessboard(8, place.BCParams{CoreBits: 4, BlockCells: 2})
		},
	} {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		full, err := Route(m, tch, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := RouteWithOptions(m, tch, nil, Options{NoDirectStubs: true, NoPartnering: true})
		if err != nil {
			t.Fatal(err)
		}
		slots := func(l *Layout) int {
			n := 0
			for _, s := range l.ChannelSlots {
				n += s
			}
			return n
		}
		if slots(naive) <= slots(full) {
			t.Errorf("naive router slots %d not above Algorithm 1's %d", slots(naive), slots(full))
		}
		if naive.Width <= full.Width {
			t.Errorf("naive router width %g not above Algorithm 1's %g", naive.Width, full.Width)
		}
	}
}

func TestAblationLayoutsStillComplete(t *testing.T) {
	// Even the naive configuration must produce complete, connected
	// routing for every bit (the completion guarantee is structural).
	m, err := place.NewChessboard(6)
	if err != nil {
		t.Fatal(err)
	}
	l, err := RouteWithOptions(m, tech.FinFET12(), nil, Options{NoDirectStubs: true, NoPartnering: true})
	if err != nil {
		t.Fatal(err)
	}
	inputs := 0
	for _, v := range l.Vias {
		if v.Input {
			inputs++
		}
	}
	if inputs != 7 {
		t.Errorf("input vias = %d, want 7", inputs)
	}
	for _, c := range l.Clusters {
		if c.Direct {
			t.Error("NoDirectStubs must not produce direct clusters")
		}
		if len(c.Partners) != 0 {
			t.Error("NoPartnering must not produce partnered clusters")
		}
	}
}
