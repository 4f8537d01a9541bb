// Package route implements the paper's constructive routing flow
// (Sec. IV-B): bottom-plate routing per Algorithm 1 (channel selection,
// track assignment, branch/trunk/bridge wire creation), the top-plate
// minimum-spanning-tree routing, and parallel-wire routing for critical
// bits (Sec. IV-B4).
//
// Electrical conventions (see DESIGN.md):
//
//   - MOM unit capacitors span M1-M3; both plates are accessible on
//     every layer at the cell, so a routing wire that *starts at a
//     cell* needs no via on its own layer. Vias occur only at
//     wire-to-wire junctions away from cells: branch->trunk,
//     trunk->bridge, and the per-bit input connection. This reproduces
//     the paper's "for any number of bits for S, the only vias are at
//     the input connection ... unit capacitors use nearest-neighbor
//     connections using the same metal layer with no vias".
//   - With p parallel wires, wire resistance divides by p, via arrays
//     have p^2 cuts (resistance /p^2), wire capacitance multiplies by p.
//   - The switch/driver cluster sits below the array; every bit's
//     bottom-plate net terminates on a rail below row 0.
package route

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/fault"
	"ccdac/internal/geom"
	"ccdac/internal/groups"
	"ccdac/internal/obs"
	"ccdac/internal/tech"
)

// Kind classifies a routed wire.
type Kind int

const (
	// KindAbut is an intra-group nearest-neighbor bottom-plate
	// connection created during group formation (via-free).
	KindAbut Kind = iota
	// KindBranch connects a unit cell to a trunk track.
	KindBranch
	// KindTrunk is a vertical channel wire carrying a cluster to the
	// terminal rails.
	KindTrunk
	// KindBridge connects the trunks of one capacitor along its rail.
	KindBridge
	// KindTop is top-plate routing (column wires and column links).
	KindTop
)

func (k Kind) String() string {
	switch k {
	case KindAbut:
		return "abut"
	case KindBranch:
		return "branch"
	case KindTrunk:
		return "trunk"
	case KindBridge:
		return "bridge"
	case KindTop:
		return "top"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TopPlateBit marks top-plate wires in Wire.Bit.
const TopPlateBit = -1

// Wire is one routed Manhattan segment.
type Wire struct {
	Seg   geom.Seg
	Layer int // index into Technology.Layers
	Par   int // parallel wire count p (>= 1)
	Bit   int // capacitor index, or TopPlateBit
	Kind  Kind
}

// Via is a junction between two layers. With Par parallel wires the
// physical via array has Par*Par cuts.
type Via struct {
	At     geom.Pt
	LayerA int
	LayerB int
	Par    int
	Bit    int
	// Input marks the per-bit driver (input) connection via.
	Input bool
}

// Cuts returns the number of physical via cuts.
func (v Via) Cuts() int { return v.Par * v.Par }

// partner is a capacitor group joined to a cluster's trunk, with the
// cell (u_q) it connects through.
type partner struct {
	G    *groups.Group
	Cell geom.Cell
}

// Cluster is the unit of Algorithm 1's channel selection: an anchor
// group plus the partner groups that share its trunk track.
type Cluster struct {
	Bit        int
	Anchor     *groups.Group
	AnchorCell geom.Cell // u_p
	Partners   []partner
	// Channel is the vertical channel index in 0..cols (channel c sits
	// left of column c); -1 for Direct clusters.
	Channel int
	// SlotStart is the first sub-track slot the cluster occupies in
	// its channel; it spans Par slots.
	SlotStart int
	// Direct marks a partnerless bottom-row group routed by a straight
	// stub under its bottom cell, using no channel resources.
	Direct bool
}

// Layout is a fully routed common-centroid array.
type Layout struct {
	M    *ccmatrix.Matrix
	Tech *tech.Technology
	// Groups indexes the connected capacitor groups by capacitor.
	Groups [][]*groups.Group
	// Clusters lists Algorithm 1's routing clusters in creation order.
	Clusters []*Cluster
	Wires    []Wire
	Vias     []Via
	// Par is the per-capacitor parallel wire count.
	Par []int
	// ChannelSlots counts the sub-track slots used per channel (len cols+1).
	ChannelSlots []int
	// Width and Height are the routed array extents in microns
	// (including channels and the rail margin below the array).
	Width, Height float64
	// Terminals holds the per-bit input connection point on its rail.
	Terminals []geom.Pt

	opts Options

	railY []float64 // per-bit rail y
	rowY  []float64 // cell-center y per row
	colX  []float64 // cell-center x per column
	chX   []float64 // channel left-edge x per channel index
	chW   []float64 // channel width per channel index
}

// railPitch is the vertical spacing between per-bit terminal rails in
// the margin below the array, in microns.
const railPitch = 0.20

// CellCenter returns the physical center of a cell in the routed layout.
func (l *Layout) CellCenter(c geom.Cell) geom.Pt {
	return geom.Pt{X: l.colX[c.Col], Y: l.rowY[c.Row]}
}

// TrackX returns the x coordinate of the center of the slot range
// [slot, slot+par) in the given channel.
func (l *Layout) TrackX(channel, slot, par int) float64 {
	pitch := l.Tech.Layers[l.Tech.VerticalLayer()].Pitch
	return l.chX[channel] + (float64(slot)+float64(par)/2)*pitch
}

// Options selects router ablations. The zero value is the paper's
// full Algorithm 1.
type Options struct {
	// NoDirectStubs disables the bottom-row direct stubs: every group
	// routes through a channel trunk.
	NoDirectStubs bool
	// NoPartnering disables channel selection's group partnering and
	// track sharing: every connected group gets its own trunk track.
	NoPartnering bool
}

// Route runs the full constructive router on a validated placement.
// par gives the per-capacitor parallel wire counts (nil: all 1).
func Route(m *ccmatrix.Matrix, t *tech.Technology, par []int) (*Layout, error) {
	return RouteWithOptionsContext(context.Background(), m, t, par, Options{})
}

// RouteContext is Route under a context carrying the observability
// trace: Algorithm 1's steps are recorded as nested spans and the
// routed-resource totals as trace metrics.
func RouteContext(ctx context.Context, m *ccmatrix.Matrix, t *tech.Technology, par []int) (*Layout, error) {
	return RouteWithOptionsContext(ctx, m, t, par, Options{})
}

// RouteWithOptions runs the router with ablation options — used to
// quantify what Algorithm 1's channel selection and bottom-stub
// tie-breakers buy over a naive one-trunk-per-group router.
func RouteWithOptions(m *ccmatrix.Matrix, t *tech.Technology, par []int, opts Options) (*Layout, error) {
	return RouteWithOptionsContext(context.Background(), m, t, par, opts)
}

// RouteWithOptionsContext is RouteWithOptions under a context carrying
// the observability trace.
func RouteWithOptionsContext(ctx context.Context, m *ccmatrix.Matrix, t *tech.Technology, par []int, opts Options) (*Layout, error) {
	if err := fault.Check(fault.StageRoute); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	if par == nil {
		par = make([]int, m.Bits+1)
	}
	if len(par) != m.Bits+1 {
		return nil, fmt.Errorf("route: par has %d entries, want %d", len(par), m.Bits+1)
	}
	parOf := make([]int, len(par))
	for i, p := range par {
		if p < 1 {
			p = 1
		}
		parOf[i] = p
	}
	_, span := obs.StartSpan(ctx, "route.groups")
	gs, err := groups.Find(m)
	if err != nil {
		err = fmt.Errorf("route: %w", err)
		span.Fail(err)
		span.End()
		return nil, err
	}
	span.End()
	l := &Layout{M: m, Tech: t, Groups: gs, Par: parOf, opts: opts}
	l.step(ctx, "route.clusters", l.formClusters) // Algorithm 1, Step 1
	l.step(ctx, "route.tracks", l.assignTracks)   // Algorithm 1, Step 2
	l.step(ctx, "route.geometry", l.computeGeometry)
	l.step(ctx, "route.wires", l.realizeWires) // Algorithm 1, Step 3
	l.step(ctx, "route.top", l.routeTopPlate)
	obs.Count(ctx, "ccdac_route_wires_total", int64(len(l.Wires)))
	obs.Count(ctx, "ccdac_route_vias_total", int64(len(l.Vias)))
	obs.Count(ctx, "ccdac_route_via_cuts_total", int64(l.ViaCuts()))
	obs.Count(ctx, "ccdac_route_clusters_total", int64(len(l.Clusters)))
	obs.SetGauge(ctx, "ccdac_route_wirelength_um", l.TotalWirelength())
	return l, nil
}

// step runs one Algorithm-1 phase under an observability span.
func (l *Layout) step(ctx context.Context, name string, f func()) {
	_, span := obs.StartSpan(ctx, name)
	f()
	span.End()
}

// formClusters is Algorithm 1 Step 1 (channel selection): for each
// capacitor, anchor groups collect partner groups whose horizontal
// span intersects theirs and whose connection cell lands in the
// channel column window; the side with more candidates wins.
func (l *Layout) formClusters() {
	// load counts the slots committed to each channel so far; only the
	// isolated-group side heuristic reads it.
	load := make([]int, l.M.Cols+1)
	for bit := 0; bit <= l.M.Bits; bit++ {
		list := l.Groups[bit]
		visited := make([]bool, len(list))
		// Groups touching the bottom row drop a direct stub to their
		// rail first: the drivers sit right below, and the paper's
		// tie-breakers consistently prefer the shortest connection to
		// the bottom (Algorithm 1 line 16, Fig. 3's C_6).
		for j, p := range list {
			if p.TouchesBottom() && !l.opts.NoDirectStubs {
				visited[j] = true
				l.Clusters = append(l.Clusters, &Cluster{
					Bit: bit, Anchor: p, AnchorCell: p.BottomCell(),
					Channel: -1, Direct: true,
				})
			}
		}
		for j, p := range list {
			if visited[j] {
				continue
			}
			visited[j] = true

			// Partnerless bottom-row groups route a direct stub.
			var pl, pr []partner // candidate partners left/right
			anchorCol := -1
			var anchorCell geom.Cell
			for k, q := range list {
				if visited[k] || l.opts.NoPartnering {
					break
				}
				plo, phi := p.ColSpan()
				qlo, qhi := q.ColSpan()
				if phi < qlo || qhi < plo {
					continue // horizontal spans disjoint (line 14)
				}
				up, uq := p.ClosestCells(q)
				if anchorCol == -1 {
					anchorCol = up.Col // line 17-18: c[j] = column of u_p
					anchorCell = up
				}
				// Lines 20-25: q joins the left channel candidates if
				// u_q sits in column c-1 or c, the right candidates if
				// in column c or c+1.
				if uq.Col == anchorCol-1 || uq.Col == anchorCol {
					pl = append(pl, partner{G: q, Cell: uq})
				}
				if uq.Col == anchorCol || uq.Col == anchorCol+1 {
					pr = append(pr, partner{G: q, Cell: uq})
				}
			}
			cl := &Cluster{Bit: bit, Anchor: p, Channel: -1}
			switch {
			case len(pl) == 0 && len(pr) == 0:
				// Isolated non-bottom group: take a track in the
				// adjacent channel with the lighter load (deterministic
				// tie toward the left).
				cl.AnchorCell = p.BottomCell()
				left, right := cl.AnchorCell.Col, cl.AnchorCell.Col+1
				if load[left] <= load[right] {
					cl.Channel = left
				} else {
					cl.Channel = right
				}
			case len(pl) > len(pr): // lines 29-31
				cl.AnchorCell = anchorCell
				cl.Partners = pl
				cl.Channel = anchorCol
				for _, q := range pl {
					markVisited(list, visited, q.G)
				}
			default: // lines 31-33
				cl.AnchorCell = anchorCell
				cl.Partners = pr
				cl.Channel = anchorCol + 1
				for _, q := range pr {
					markVisited(list, visited, q.G)
				}
			}
			l.Clusters = append(l.Clusters, cl)
			load[cl.Channel] += l.Par[bit]
		}
	}
	l.shareTracks()
}

// shareTracks merges clusters of the same capacitor that chose the
// same channel: they are one electrical net and can share a single
// trunk track (Algorithm 1's channel selection "attempts to assign
// capacitor groups to channels so that they maximize track sharing").
func (l *Layout) shareTracks() {
	if l.opts.NoPartnering {
		return
	}
	type key struct{ bit, ch int }
	first := map[key]*Cluster{}
	merged := l.Clusters[:0]
	for _, c := range l.Clusters {
		if c.Direct {
			merged = append(merged, c)
			continue
		}
		k := key{c.Bit, c.Channel}
		if host, ok := first[k]; ok {
			host.Partners = append(host.Partners, partner{G: c.Anchor, Cell: c.AnchorCell})
			host.Partners = append(host.Partners, c.Partners...)
			continue
		}
		first[k] = c
		merged = append(merged, c)
	}
	l.Clusters = merged
}

func markVisited(list []*groups.Group, visited []bool, g *groups.Group) {
	for i, x := range list {
		if x == g {
			visited[i] = true
			return
		}
	}
}

// assignTracks is Algorithm 1 Step 2: per channel, clusters take the
// next free slot range (Par slots wide) in creation order. DAC
// performance is insensitive to ordering within a channel (Sec. IV-B3).
func (l *Layout) assignTracks() {
	l.ChannelSlots = make([]int, l.M.Cols+1)
	for _, c := range l.Clusters {
		if c.Direct {
			continue
		}
		c.SlotStart = l.ChannelSlots[c.Channel]
		l.ChannelSlots[c.Channel] += l.Par[c.Bit]
	}
}

// computeGeometry fixes the physical coordinate system: channel widths
// from slot counts, cell centers, per-bit rails, and array extents.
func (l *Layout) computeGeometry() {
	u := l.Tech.Unit
	pitch := l.Tech.Layers[l.Tech.VerticalLayer()].Pitch
	cols, rows := l.M.Cols, l.M.Rows

	l.chW = make([]float64, cols+1)
	for ch, slots := range l.ChannelSlots {
		if slots > 0 {
			// One guard pitch on each side of the track bundle.
			l.chW[ch] = float64(slots+1) * pitch
		}
	}
	l.chX = make([]float64, cols+1)
	l.colX = make([]float64, cols)
	x := 0.0
	for ch := 0; ch <= cols; ch++ {
		l.chX[ch] = x
		x += l.chW[ch]
		if ch < cols {
			l.colX[ch] = x + u.W/2
			x += u.W
		}
	}
	l.Width = x

	margin := float64(l.M.Bits+2) * railPitch
	l.rowY = make([]float64, rows)
	for r := 0; r < rows; r++ {
		l.rowY[r] = margin + (float64(r)+0.5)*u.H
	}
	l.railY = make([]float64, l.M.Bits+1)
	for bit := 0; bit <= l.M.Bits; bit++ {
		l.railY[bit] = margin - float64(bit+1)*railPitch
	}
	l.Height = margin + float64(rows)*u.H
}

// realizeWires is Algorithm 1 Step 3: emit abutment trees, branch
// wires, trunks, bridges, and the input connections, with vias at every
// inter-wire junction.
func (l *Layout) realizeWires() {
	hl := l.Tech.HorizontalLayer()
	vl := l.Tech.VerticalLayer()
	bl := l.bridgeLayer()
	l.Terminals = make([]geom.Pt, l.M.Bits+1)

	// Size the wire and via lists up front from what is emitted below:
	// one abutment wire per group edge, per-cluster wires and vias (each
	// cluster adds at most one bridge wire and via), an input via per
	// bit, and the top-plate wires routeTopPlate appends.
	nw, nv := 2*l.M.Cols, l.M.Bits+1
	for _, list := range l.Groups {
		for _, g := range list {
			nw += len(g.Edges)
		}
	}
	for _, c := range l.Clusters {
		if c.Direct {
			nw, nv = nw+2, nv+1 // stub, bridge
			continue
		}
		taps := 1 + len(c.Partners)
		nw += 2*taps + 1 // branches, trunk pieces, bridge
		nv += taps + 1   // branch vias, bridge via
	}
	l.Wires = make([]Wire, 0, nw)
	l.Vias = make([]Via, 0, nv)

	// Intra-group abutment wires (via-free, cell-to-cell).
	for bit, list := range l.Groups {
		p := l.Par[bit]
		for _, g := range list {
			for _, e := range g.Edges {
				a, b := l.CellCenter(e.A), l.CellCenter(e.B)
				layer := hl
				if a.X == b.X {
					layer = vl
				}
				l.Wires = append(l.Wires, Wire{
					Seg: geom.Seg{A: a, B: b}, Layer: layer, Par: p, Bit: bit, Kind: KindAbut,
				})
			}
		}
	}

	// Per-bit trunk bottoms for bridge construction.
	type trunkEnd struct{ x float64 }
	ends := make([][]trunkEnd, l.M.Bits+1)

	for _, c := range l.Clusters {
		p := l.Par[c.Bit]
		rail := l.railY[c.Bit]
		if c.Direct {
			// Straight stub under the bottom cell down to the rail.
			at := l.CellCenter(c.AnchorCell)
			l.Wires = append(l.Wires, Wire{
				Seg:   geom.Seg{A: at, B: geom.Pt{X: at.X, Y: rail}},
				Layer: vl, Par: p, Bit: c.Bit, Kind: KindTrunk,
			})
			ends[c.Bit] = append(ends[c.Bit], trunkEnd{x: at.X})
			continue
		}
		tx := l.TrackX(c.Channel, c.SlotStart, p)
		var taps []float64 // branch junction ys along the trunk
		connect := func(cell geom.Cell) {
			at := l.CellCenter(cell)
			l.Wires = append(l.Wires, Wire{
				Seg:   geom.Seg{A: at, B: geom.Pt{X: tx, Y: at.Y}},
				Layer: hl, Par: p, Bit: c.Bit, Kind: KindBranch,
			})
			l.Vias = append(l.Vias, Via{
				At: geom.Pt{X: tx, Y: at.Y}, LayerA: hl, LayerB: vl, Par: p, Bit: c.Bit,
			})
			taps = append(taps, at.Y)
		}
		connect(c.AnchorCell)
		for _, q := range c.Partners {
			connect(q.Cell)
		}
		// The trunk runs from the highest tap down to the rail, split
		// at every tap so each branch junction is an explicit node in
		// the extracted RC network.
		taps = append(taps, rail)
		ys := sortedUniqueDesc(taps)
		for i := 0; i+1 < len(ys); i++ {
			l.Wires = append(l.Wires, Wire{
				Seg:   geom.Seg{A: geom.Pt{X: tx, Y: ys[i]}, B: geom.Pt{X: tx, Y: ys[i+1]}},
				Layer: vl, Par: p, Bit: c.Bit, Kind: KindTrunk,
			})
		}
		ends[c.Bit] = append(ends[c.Bit], trunkEnd{x: tx})
	}

	// Bridges join multiple trunks of one capacitor along its rail;
	// the terminal (input connection) sits at the leftmost trunk.
	for bit := 0; bit <= l.M.Bits; bit++ {
		es := ends[bit]
		if len(es) == 0 {
			continue
		}
		p := l.Par[bit]
		rail := l.railY[bit]
		minX := es[0].x
		for _, e := range es[1:] {
			minX = math.Min(minX, e.x)
		}
		if len(es) > 1 {
			// The bridge is split at every trunk junction so each via
			// lands on an explicit RC node.
			xs := make([]float64, 0, len(es))
			for _, e := range es {
				xs = append(xs, e.x)
			}
			xs = sortedUniqueAsc(xs)
			for i := 0; i+1 < len(xs); i++ {
				l.Wires = append(l.Wires, Wire{
					Seg:   geom.Seg{A: geom.Pt{X: xs[i], Y: rail}, B: geom.Pt{X: xs[i+1], Y: rail}},
					Layer: bl, Par: p, Bit: bit, Kind: KindBridge,
				})
			}
			for _, x := range xs {
				l.Vias = append(l.Vias, Via{
					At: geom.Pt{X: x, Y: rail}, LayerA: vl, LayerB: bl, Par: p, Bit: bit,
				})
			}
		}
		l.Terminals[bit] = geom.Pt{X: minX, Y: rail}
		l.Vias = append(l.Vias, Via{
			At: l.Terminals[bit], LayerA: vlOrBridge(len(es) > 1, l), LayerB: -1, Par: p, Bit: bit, Input: true,
		})
	}
}

func vlOrBridge(bridged bool, l *Layout) int {
	if bridged {
		return l.bridgeLayer()
	}
	return l.Tech.VerticalLayer()
}

// bridgeLayer picks the highest horizontal layer for rails/bridges.
func (l *Layout) bridgeLayer() int {
	best := l.Tech.HorizontalLayer()
	for i, layer := range l.Tech.Layers {
		if layer.Dir == geom.Horizontal {
			best = i
		}
	}
	return best
}

// routeTopPlate builds the MST-style top-plate routing of Sec. IV-B5:
// one vertical wire per column tying all cells, and one cell-to-cell
// link between adjacent columns at the bottom row. Both plate terminals
// exist at the cells on every layer, so the top-plate net is via-free.
func (l *Layout) routeTopPlate() {
	vl := l.Tech.VerticalLayer()
	// Column-to-column links ride the highest horizontal layer so they
	// never share a layer with row-0 bottom-plate branch wires; the top
	// plate is accessible there at the cells, keeping the net via-free.
	hl := l.bridgeLayer()
	rows, cols := l.M.Rows, l.M.Cols
	for c := 0; c < cols; c++ {
		l.Wires = append(l.Wires, Wire{
			Seg: geom.Seg{
				A: geom.Pt{X: l.colX[c], Y: l.rowY[0]},
				B: geom.Pt{X: l.colX[c], Y: l.rowY[rows-1]},
			},
			Layer: vl, Par: 1, Bit: TopPlateBit, Kind: KindTop,
		})
	}
	for c := 0; c+1 < cols; c++ {
		l.Wires = append(l.Wires, Wire{
			Seg: geom.Seg{
				A: geom.Pt{X: l.colX[c], Y: l.rowY[0]},
				B: geom.Pt{X: l.colX[c+1], Y: l.rowY[0]},
			},
			Layer: hl, Par: 1, Bit: TopPlateBit, Kind: KindTop,
		})
	}
}

// sortedUniqueDesc returns the distinct values sorted descending.
func sortedUniqueDesc(vs []float64) []float64 {
	out := sortedUniqueAsc(vs)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// sortedUniqueAsc returns the distinct values sorted ascending.
func sortedUniqueAsc(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Area returns the routed array area in square microns.
func (l *Layout) Area() float64 { return l.Width * l.Height }

// ViaCuts returns the total number of physical via cuts (vias count
// p^2 under p-wire parallel routing), the Sigma N_V of Table I.
func (l *Layout) ViaCuts() int {
	n := 0
	for _, v := range l.Vias {
		n += v.Cuts()
	}
	return n
}

// TotalWirelength returns the total routed wirelength in microns
// including top-plate wires (the Sigma L of Table I).
func (l *Layout) TotalWirelength() float64 {
	s := 0.0
	for _, w := range l.Wires {
		s += w.Seg.Len()
	}
	return s
}
