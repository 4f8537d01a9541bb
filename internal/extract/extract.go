// Package extract computes the electrical view of a routed
// common-centroid layout: the parasitic summary metrics of the paper's
// Table I (ΣC^TS, ΣC^wire, ΣC^BB, ΣN_V, ΣL, and per-critical-bit R_V /
// R_total) and the per-bit RC networks whose Elmore delays set the 3dB
// frequency (Sec. III-B).
//
// Modeling follows the paper's Sec. II-B: a wire segment of length l
// has resistance r·l and ground capacitance c·l; two parallel segments
// with overlap l_ov at spacing s couple through c_c(s)·l_ov. Vias have
// a fixed per-cut resistance, reduced p^2-fold by parallel via arrays.
package extract

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"ccdac/internal/fault"
	"ccdac/internal/geom"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/rcnet"
	"ccdac/internal/route"
)

// couplingReach is the largest wire spacing (in units of minimum
// spacing) at which sidewall coupling is still extracted; beyond it the
// 1/s fringe term is negligible.
const couplingReach = 6.0

// BitNet is the extracted bottom-plate charging network of one capacitor.
type BitNet struct {
	Bit int
	// Net is the RC network; Root is the driver node (below the input
	// connection via); CellNodes are the bottom-plate nodes of the
	// bit's unit cells, carrying the C_u loads.
	Net       *rcnet.Net
	Root      int
	CellNodes []int
	// RWireOhm and RViaOhm total the wire and via resistances of the
	// net (the R_total and R_V of Table I are these sums for the
	// critical bit).
	RWireOhm, RViaOhm float64
	// CWirefF is the bit's routed bottom-plate wire capacitance.
	CWirefF float64
	// TauSec is the Elmore delay to the slowest unit cell.
	TauSec float64
}

// Summary carries the Table I metrics plus the per-bit networks.
type Summary struct {
	// CTSfF is the total top-plate-to-substrate routing capacitance.
	CTSfF float64
	// CWirefF is the total bottom-plate wiring capacitance.
	CWirefF float64
	// CBBfF is the total bottom-plate-to-bottom-plate (inter-bit)
	// coupling capacitance.
	CBBfF float64
	// ViaCuts is ΣN_V: total physical via cuts.
	ViaCuts int
	// WirelengthUm is ΣL: total routed wirelength.
	WirelengthUm float64
	// AreaUm2 is the routed array area.
	AreaUm2 float64
	// Bits holds the per-capacitor extracted networks, indexed by bit.
	Bits []BitNet
	// CGIterations and CGFallbacks are always 0: every bit network is
	// a tree analyzed in closed form, with no iterative solve. They
	// remain only because the perfbench flow workload still reads them.
	CGIterations, CGFallbacks int
}

// CriticalBit returns the capacitor with the largest Elmore delay; its
// time constant limits the DAC clock (Sec. III-B). A summary with no
// extracted bit networks has no critical bit and reports -1.
func (s *Summary) CriticalBit() int {
	if len(s.Bits) == 0 {
		return -1
	}
	best, bestTau := 0, -1.0
	for _, b := range s.Bits {
		if b.TauSec > bestTau {
			best, bestTau = b.Bit, b.TauSec
		}
	}
	return best
}

// Tau returns the limiting (maximum) Elmore time constant in seconds,
// or 0 when no bit networks were extracted.
func (s *Summary) Tau() float64 {
	crit := s.CriticalBit()
	if crit < 0 || crit >= len(s.Bits) {
		return 0
	}
	return s.Bits[crit].TauSec
}

// Extract computes the full electrical view of a routed layout.
func Extract(l *route.Layout) (*Summary, error) {
	return ExtractContext(context.Background(), l)
}

// ExtractContext is Extract under a context carrying the observability
// trace: the coupling sweep and the per-bit network builds are recorded
// as nested spans, and the pair and node counts land in the trace's
// metrics.
func ExtractContext(ctx context.Context, l *route.Layout) (*Summary, error) {
	if err := fault.Check(fault.StageExtract); err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	s := &Summary{
		ViaCuts:      l.ViaCuts(),
		WirelengthUm: l.TotalWirelength(),
		AreaUm2:      l.Area(),
	}
	// Ground-capacitance sums and the coupling extraction.
	_, span := obs.StartSpan(ctx, "extract.couple")
	wireCoupling, pairs := couple(l, s)
	span.End()
	obs.Count(ctx, "ccdac_extract_coupling_pairs_total", int64(pairs))
	for _, w := range l.Wires {
		if w.Bit == route.TopPlateBit {
			s.CTSfF += l.Tech.TopPlateCfFPerUm * w.Seg.Len()
			continue
		}
		s.CWirefF += l.Tech.WireC(w.Layer, effLen(l, w), w.Par)
	}

	// Per-bit network builds are independent (each assembles and
	// analyzes its own rcnet from the shared read-only layout), so they
	// fan out across the context's worker budget; results land by bit
	// index, keeping the summary identical at any worker count. Bits
	// are claimed MSB-first: ForN hands out ascending indices, and the
	// largest net (half the cells) should start first, not last.
	_, span = obs.StartSpan(ctx, "extract.bitnets")
	nBits := l.M.Bits + 1
	s.Bits = make([]BitNet, nBits)
	nets := make([]*BitNet, nBits)
	// Cells are bucketed as row-major indices, so each bit's cells come
	// in m.CellsOf order.
	cols := l.M.Cols
	cellsOf := byBit(l.M.Rows*cols, nBits, func(i int) int { return l.M.At(geom.Cell{Row: i / cols, Col: i % cols}) })
	wiresOf := byBit(len(l.Wires), nBits, func(i int) int { return l.Wires[i].Bit })
	viasOf := byBit(len(l.Vias), nBits, func(i int) int { return l.Vias[i].Bit })
	if err := par.ForN(par.Workers(ctx), nBits, func(i int) error {
		bit := nBits - 1 - i
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("extract: bit %d: %w", bit, cerr)
		}
		bn, berr := buildBitNet(l, bit, wireCoupling, cellsOf[bit], wiresOf[bit], viasOf[bit])
		if berr != nil {
			return fmt.Errorf("extract: bit %d: %w", bit, berr)
		}
		nets[bit] = bn
		return nil
	}); err != nil {
		span.Fail(err)
		span.End()
		return nil, err
	}
	nodes := 0
	for bit, bn := range nets {
		s.Bits[bit] = *bn
		nodes += bn.Net.NumNodes()
	}
	span.End()
	obs.Count(ctx, "ccdac_extract_nodes_total", int64(nodes))
	return s, nil
}

// Coupling runs just the coupling sweep of a routed layout and returns
// the total inter-bit coupling ΣC^BB in fF and the number of coupled
// wire pairs — the benchmark and diagnostic surface of couple.
func Coupling(l *route.Layout) (cbbFF float64, pairs int) {
	var s Summary
	_, p := couple(l, &s)
	return s.CBBfF, p
}

// couplingTrack is one track of the coupling sweep: the bottom-plate
// wires of one (layer, direction) bucket that share an exact
// perpendicular coordinate (y for horizontal wires, x for vertical
// ones). Its wires are entries[start:end], in wire order.
type couplingTrack struct {
	bucket     int
	perp       float64
	start, end int
}

// coupleEntry is one swept wire: its slot in the layout, its capacitor
// and its extent along the track.
type coupleEntry struct {
	idx, bit int
	lo, hi   float64
}

// couplingWindow is one track within reach of the track being swept,
// with its sidewall coupling per µm of overlap.
type couplingWindow struct {
	entries []coupleEntry
	cPerUm  float64
}

// couple extracts pairwise sidewall coupling between bottom-plate wires
// of different capacitors (the C^BB of Table I), returning each wire's
// share of coupling capacitance (treated as grounded for delay) and
// the number of coupled wire pairs found.
//
// Only parallel same-layer wires within couplingReach spacings couple,
// and wires on one track abut rather than couple. So instead of the
// seed's O(W²) all-pairs scan the wires are grouped by track — one
// counting pass, then a sort of only the distinct tracks by (bucket,
// coordinate) — and each wire is compared only against the wires of
// the later tracks inside its reach window. Wires on a track keep
// their layout order, so pairs are visited in (track, wire index)
// order, and the overlap is OverlapLen's max(0, min(hi) − max(lo)).
// Non-Manhattan segments overlap nothing and are left out. The pair
// set is exactly the seed's (the window bound is the same separation
// cutoff); only the accumulation order differs.
func couple(l *route.Layout, s *Summary) ([]float64, int) {
	pairs := 0
	share := make([]float64, len(l.Wires))
	nLayers := len(l.Tech.Layers)
	// Pass 1: find each swept wire's track and count the tracks'
	// wires. geom.Seg classifies zero-length segments as horizontal,
	// matching Separation's pairing rules. Each bucket indexes its
	// tracks by their coordinate's bits, with −0 folded onto +0, and a
	// NaN coordinate opens a track of its own: the tracks are those of
	// comparing coordinates with ==.
	var tracks []couplingTrack
	index := make([]map[uint64]int, 2*nLayers)
	trackOf := make([]int32, len(l.Wires)) // track + 1; 0 = not swept
	swept := 0
	for i, w := range l.Wires {
		if w.Bit == route.TopPlateBit || w.Layer < 0 || w.Layer >= nLayers || !w.Seg.IsManhattan() {
			continue
		}
		perp := w.Seg.A.Y
		b := 2 * w.Layer
		if w.Seg.Dir() == geom.Vertical {
			perp = w.Seg.A.X
			b++
		}
		t := len(tracks)
		if perp == perp { // a NaN coordinate matches no track
			k := math.Float64bits(perp)
			if perp == 0 {
				k = 0 // −0 and +0 are one track
			}
			if index[b] == nil {
				index[b] = make(map[uint64]int)
			}
			if known, ok := index[b][k]; ok {
				t = known
			} else {
				index[b][k] = t
			}
		}
		if t == len(tracks) {
			tracks = append(tracks, couplingTrack{bucket: b, perp: perp})
		}
		tracks[t].end++
		trackOf[i] = int32(t + 1)
		swept++
	}
	order := make([]int, len(tracks))
	for t := range order {
		order[t] = t
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(tracks[a].bucket, tracks[b].bucket), cmp.Compare(tracks[a].perp, tracks[b].perp))
	})
	off := 0
	for _, t := range order {
		n := tracks[t].end
		tracks[t].start, tracks[t].end = off, off
		off += n
	}
	// Pass 2: lay the wires out track by track, in wire order.
	entries := make([]coupleEntry, swept)
	for i, t := range trackOf {
		if t == 0 {
			continue
		}
		w := l.Wires[i]
		lo, hi := min(w.Seg.A.X, w.Seg.B.X), max(w.Seg.A.X, w.Seg.B.X)
		if w.Seg.Dir() == geom.Vertical {
			lo, hi = min(w.Seg.A.Y, w.Seg.B.Y), max(w.Seg.A.Y, w.Seg.B.Y)
		}
		tr := &tracks[t-1]
		entries[tr.end] = coupleEntry{idx: i, bit: w.Bit, lo: lo, hi: hi}
		tr.end++
	}

	reach := couplingReach * l.Tech.SMinUm
	var win []couplingWindow
	for k, t := range order {
		tt := tracks[t]
		win = win[:0]
		for _, u := range order[k+1:] {
			tu := tracks[u]
			sep := tu.perp - tt.perp
			if tu.bucket != tt.bucket || !(sep <= reach) {
				break
			}
			win = append(win, couplingWindow{entries: entries[tu.start:tu.end], cPerUm: l.Tech.CouplingfFPerUm(sep)})
		}
		for _, ei := range entries[tt.start:tt.end] {
			for _, w := range win {
				for _, ej := range w.entries {
					if ej.bit == ei.bit {
						continue
					}
					ov := min(ei.hi, ej.hi) - max(ei.lo, ej.lo)
					if ov <= 0 {
						continue
					}
					c := w.cPerUm * ov
					s.CBBfF += c
					share[ei.idx] += c / 2
					share[ej.idx] += c / 2
					pairs++
				}
			}
		}
	}
	return share, pairs
}

// effLen is the electrical length of a wire. Abutment connections
// between adjacent unit capacitors join two wide multi-finger,
// multi-layer MOM plates through a short jumper; their resistance and
// capacitance follow the jumper length (Unit.AbutLen), not the drawn
// center-to-center distance — this is why the paper's spiral placement
// has near-zero intra-group routing resistance (Sec. IV-B1/V).
func effLen(l *route.Layout, w route.Wire) float64 {
	if w.Kind == route.KindAbut {
		return math.Min(w.Seg.Len(), l.Tech.Unit.AbutLen)
	}
	return w.Seg.Len()
}

func quant(v float64) int64 { return int64(math.Round(v * 1000)) }

// byBit buckets the indices 0..n-1 of items by capacitor, ascending
// within each bit — the order a bit's network is stamped in. Items of
// no bit (top-plate wires, dummy cells) are left out.
func byBit(n, bits int, bitOf func(i int) int) [][]int {
	counts := make([]int, bits)
	total := 0
	for i := 0; i < n; i++ {
		if b := bitOf(i); b >= 0 && b < bits {
			counts[b]++
			total++
		}
	}
	out := make([][]int, bits)
	backing := make([]int, total)
	off := 0
	for b, c := range counts {
		out[b] = backing[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		if b := bitOf(i); b >= 0 && b < bits {
			out[b] = append(out[b], i)
		}
	}
	return out
}

// bitNodes numbers the nodes of one bit network by point, quantized to
// 1 nm so float arithmetic cannot split electrically-identical
// junctions into distinct nodes. A point at one of the bit's cell
// centers is that cell's plate node on every layer (bottom plates are
// reachable on every layer at the cell); any other point holds one
// junction node per layer, created on first sight.
//
// A point whose two 1-nm coordinates fit in int32 (±2.1 m, far beyond
// any array) is keyed by both packed into one word; any other point by
// the exact pair, in a map made on first need. A bitNodes, with its
// maps, junction list and tree workspace, serves the builds of many
// nets in turn: bitNodesPool hands them out.
type bitNodes struct {
	net  *rcnet.Net
	at   map[uint64]pointNodes
	wide map[[2]int64]pointNodes
	junc []junctionNode
	tree rcnet.Workspace
}

// bitNodesPool holds the bitNodes of finished bit builds, so the nets
// of every bit and every promotion round reuse their storage.
var bitNodesPool = sync.Pool{New: func() any { return &bitNodes{at: make(map[uint64]pointNodes)} }}

// numbering returns an empty bitNodes for net; release returns it to
// the pool.
func numbering(net *rcnet.Net) *bitNodes {
	b := bitNodesPool.Get().(*bitNodes)
	b.net = net
	clear(b.at)
	b.wide = nil
	b.junc = b.junc[:0]
	return b
}

func (b *bitNodes) release() {
	b.net = nil
	bitNodesPool.Put(b)
}

// pointNodes is one point's cell node (-1 if none) and the head of its
// junction list in bitNodes.junc (-1 if empty).
type pointNodes struct{ cell, junc int32 }

// junctionNode is one layer's junction at a point; next links the
// point's other junctions.
type junctionNode struct {
	layer      int
	node, next int32
}

// packed returns the 1-nm coordinates x and y in one word, and false
// when either leaves int32 range.
func packed(x, y int64) (uint64, bool) {
	if x != int64(int32(x)) || y != int64(int32(y)) {
		return 0, false
	}
	return uint64(uint32(x))<<32 | uint64(uint32(y)), true
}

// lookup returns the nodes at the point with 1-nm coordinates (x, y).
func (b *bitNodes) lookup(x, y int64) (pointNodes, bool) {
	if k, ok := packed(x, y); ok {
		pn, ok := b.at[k]
		return pn, ok
	}
	pn, ok := b.wide[[2]int64{x, y}]
	return pn, ok
}

// store records the nodes at the point with 1-nm coordinates (x, y).
func (b *bitNodes) store(x, y int64, pn pointNodes) {
	if k, ok := packed(x, y); ok {
		b.at[k] = pn
		return
	}
	if b.wide == nil {
		b.wide = make(map[[2]int64]pointNodes)
	}
	b.wide[[2]int64{x, y}] = pn
}

// nodeOf returns the node at p on layer, creating a junction if the
// point has neither a cell nor a junction on that layer yet.
func (b *bitNodes) nodeOf(p geom.Pt, layer int) int {
	x, y := quant(p.X), quant(p.Y)
	pn, ok := b.lookup(x, y)
	if !ok {
		pn = pointNodes{cell: -1, junc: -1}
	}
	if pn.cell >= 0 {
		return int(pn.cell)
	}
	for j := pn.junc; j >= 0; j = b.junc[j].next {
		if b.junc[j].layer == layer {
			return int(b.junc[j].node)
		}
	}
	id := b.net.AddNode()
	b.junc = append(b.junc, junctionNode{layer: layer, node: int32(id), next: pn.junc})
	pn.junc = int32(len(b.junc) - 1)
	b.store(x, y, pn)
	return id
}

// buildBitNet assembles the RC charging network of one capacitor from
// its cells (row-major cell indices) and its routed wires and vias
// (indices into the layout's), each ascending, and takes its τ, the
// Elmore delay to its slowest cell, from its tree. A network that is not a tree rooted at the
// driver fails with rcnet.ErrNotTree.
func buildBitNet(l *route.Layout, bit int, wireCoupling []float64, cells, wires, vias []int) (*BitNet, error) {
	net := rcnet.New()
	// A routed bit network is a tree: every wire and via is one
	// resistor, plus the driver's, and a tree has one node more than it
	// has resistors.
	nodeCount := max(len(cells), len(wires)+len(vias)) + 2
	net.Grow(nodeCount, len(wires)+len(vias)+1)
	bn := &BitNet{Bit: bit, Net: net, CellNodes: make([]int, 0, len(cells))}

	nodes := numbering(net)
	defer nodes.release()
	for _, i := range cells {
		id := net.AddNode()
		net.AddC(id, l.Tech.Unit.CfF)
		c := l.CellCenter(geom.Cell{Row: i / l.M.Cols, Col: i % l.M.Cols})
		nodes.store(quant(c.X), quant(c.Y), pointNodes{cell: int32(id), junc: -1})
		bn.CellNodes = append(bn.CellNodes, id)
	}

	for _, i := range wires {
		w := l.Wires[i]
		a := nodes.nodeOf(w.Seg.A, w.Layer)
		b := nodes.nodeOf(w.Seg.B, w.Layer)
		el := effLen(l, w)
		r := l.Tech.WireR(w.Layer, el, w.Par)
		c := l.Tech.WireC(w.Layer, el, w.Par) + wireCoupling[i]
		net.AddR(a, b, r)
		net.AddC(a, c/2)
		net.AddC(b, c/2)
		bn.RWireOhm += r
		bn.CWirefF += c
	}
	// The driver (switch) sits behind the input connection; its
	// on-resistance does not scale with parallel routing, bounding the
	// Fig. 6(a) gains.
	root := net.AddNode()
	driver := net.AddNode()
	net.AddR(root, driver, l.Tech.SwitchROhm)
	bn.Root = root
	for _, i := range vias {
		v := l.Vias[i]
		r := l.Tech.ViaR(v.Par)
		bn.RViaOhm += r
		if v.Input {
			net.AddR(driver, nodes.nodeOf(v.At, v.LayerA), r)
			continue
		}
		net.AddR(nodes.nodeOf(v.At, v.LayerA), nodes.nodeOf(v.At, v.LayerB), r)
	}
	tau, err := net.MaxElmore(&nodes.tree, root, bn.CellNodes)
	if err != nil {
		return nil, err
	}
	bn.TauSec = tau
	return bn, nil
}

// F3dB converts the limiting time constant of an N-bit DAC into the
// paper's 3dB switching frequency (Eq. 16):
// f_3dB = 1 / (2 (N+2) ln 2 · tau).
func F3dB(bits int, tauSec float64) float64 {
	if tauSec <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * float64(bits+2) * math.Ln2 * tauSec)
}

// SettlingTime returns t_settle = ln(2^(N+2))·tau (Eq. 15), the time to
// charge within 1/4 LSB of the final value.
func SettlingTime(bits int, tauSec float64) float64 {
	return float64(bits+2) * math.Ln2 * tauSec
}
