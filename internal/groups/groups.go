// Package groups implements connected-capacitor-group formation
// (paper Sec. IV-B2): for each capacitor C_i the unit cells form a
// graph with edges between 4-adjacent same-capacitor cells; a breadth-
// first search finds its connected components, and the BFS tree edges
// become the via-free branch wires that join bottom plates of
// neighboring unit capacitors.
package groups

import (
	"fmt"
	"slices"
	"sort"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
)

// Edge is a branch-wire connection between two 4-adjacent unit cells
// of the same capacitor.
type Edge struct {
	A, B geom.Cell
}

// Group is one connected component of a capacitor's unit cells.
type Group struct {
	// Bit is the capacitor index C_bit.
	Bit int
	// Cells lists the member cells in BFS discovery order; Cells[0] is
	// the bottom-left-most cell (the deterministic BFS root).
	Cells []geom.Cell
	// Edges are the BFS tree edges: the branch wires that connect the
	// group's bottom plates without vias.
	Edges []Edge
}

// Size returns the number of unit cells in the group.
func (g *Group) Size() int { return len(g.Cells) }

// ColSpan returns the inclusive column range [lo, hi] covered by the group.
func (g *Group) ColSpan() (lo, hi int) {
	lo, hi = g.Cells[0].Col, g.Cells[0].Col
	for _, c := range g.Cells[1:] {
		if c.Col < lo {
			lo = c.Col
		}
		if c.Col > hi {
			hi = c.Col
		}
	}
	return lo, hi
}

// RowSpan returns the inclusive row range [lo, hi] covered by the group.
func (g *Group) RowSpan() (lo, hi int) {
	lo, hi = g.Cells[0].Row, g.Cells[0].Row
	for _, c := range g.Cells[1:] {
		if c.Row < lo {
			lo = c.Row
		}
		if c.Row > hi {
			hi = c.Row
		}
	}
	return lo, hi
}

// TouchesBottom reports whether the group contains a cell in row 0,
// adjacent to the driver cluster below the array.
func (g *Group) TouchesBottom() bool {
	lo, _ := g.RowSpan()
	return lo == 0
}

// CellsInCol returns the group's cells in the given column, bottom-up.
func (g *Group) CellsInCol(col int) []geom.Cell {
	var out []geom.Cell
	for _, c := range g.Cells {
		if c.Col == col {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}

// BottomCell returns the group's lowest cell (ties broken by lowest
// column), the natural tap point toward the drivers at the array bottom.
func (g *Group) BottomCell() geom.Cell {
	best := g.Cells[0]
	for _, c := range g.Cells[1:] {
		if c.Row < best.Row || (c.Row == best.Row && c.Col < best.Col) {
			best = c
		}
	}
	return best
}

// ClosestCells returns the pair (u in g, v in o) minimizing Manhattan
// distance; ties are broken toward the bottom of the array and then
// toward the left, matching the router's tie-breaking rule (Algorithm 1
// line 16: "if tied, choose a unit cell pair closest to bottom").
func (g *Group) ClosestCells(o *Group) (u, v geom.Cell) {
	bestDist := int(^uint(0) >> 1)
	bestSum := bestDist
	for _, a := range g.Cells {
		for _, b := range o.Cells {
			d := a.Manhattan(b)
			sum := a.Row + b.Row
			if d < bestDist || (d == bestDist && sum < bestSum) ||
				(d == bestDist && sum == bestSum && a.Col+b.Col < u.Col+v.Col) {
				bestDist, bestSum = d, sum
				u, v = a, b
			}
		}
	}
	return u, v
}

// Find computes the connected capacitor groups of every capacitor in
// the placement, indexed by capacitor: result[k] lists the groups of
// C_k ordered by their bottom-left-most cell. Dummy cells form no
// groups (they are tied to ground outside the signal routing).
//
// The BFS queue is the group's own Cells list, and each cell's
// neighbors are checked inline in Neighbors4 order. Every group's
// Cells is a capped window of one backing shared by the placement,
// sized so it never reallocates; its Edges are gathered in a reused
// buffer and copied out at their exact length.
func Find(m *ccmatrix.Matrix) ([][]*Group, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	visited := make([]bool, m.Rows*m.Cols)
	cells := make([]geom.Cell, 0, m.Rows*m.Cols)
	var edges []Edge
	out := make([][]*Group, m.Bits+1)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			start := geom.Cell{Row: r, Col: c}
			idx := r*m.Cols + c
			bit := m.At(start)
			if visited[idx] || bit < 0 {
				continue
			}
			first := len(cells)
			cells = append(cells, start)
			edges = edges[:0]
			visited[idx] = true
			for head := first; head < len(cells); head++ {
				cur := cells[head]
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, -1}, {0, 1}} {
					n := cur.Add(d[0], d[1])
					if !n.In(m.Rows, m.Cols) {
						continue
					}
					ni := n.Row*m.Cols + n.Col
					if visited[ni] || m.At(n) != bit {
						continue
					}
					visited[ni] = true
					edges = append(edges, Edge{A: cur, B: n})
					cells = append(cells, n)
				}
			}
			g := &Group{Bit: bit, Cells: cells[first:len(cells):len(cells)]}
			if len(edges) > 0 {
				g.Edges = slices.Clone(edges)
			}
			out[bit] = append(out[bit], g)
		}
	}
	return out, nil
}

// TotalGroups counts the groups across all capacitors.
func TotalGroups(gs [][]*Group) int {
	n := 0
	for _, list := range gs {
		n += len(list)
	}
	return n
}
