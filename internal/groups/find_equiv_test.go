package groups

import (
	"fmt"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/place"
)

// refFind is a verbatim copy of Find as it stood before the BFS kept
// its queue in Group.Cells and checked neighbors inline. It exists only
// to pin the rewrite's discovery and edge order.
func refFind(m *ccmatrix.Matrix) ([][]*Group, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	visited := make([]bool, m.Rows*m.Cols)
	out := make([][]*Group, m.Bits+1)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			start := geom.Cell{Row: r, Col: c}
			idx := r*m.Cols + c
			bit := m.At(start)
			if visited[idx] || bit < 0 {
				continue
			}
			g := &Group{Bit: bit}
			queue := []geom.Cell{start}
			visited[idx] = true
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				g.Cells = append(g.Cells, cur)
				for _, n := range cur.Neighbors4(m.Rows, m.Cols) {
					ni := n.Row*m.Cols + n.Col
					if visited[ni] || m.At(n) != bit {
						continue
					}
					visited[ni] = true
					g.Edges = append(g.Edges, Edge{A: cur, B: n})
					queue = append(queue, n)
				}
			}
			out[bit] = append(out[bit], g)
		}
	}
	return out, nil
}

// TestFindMatchesReference requires Find to return the reference's
// groups in the same order, each with the same Cells and Edges in the
// same order, on spiral, chessboard, block-chessboard and annealed
// placements at 4–12 bits.
func TestFindMatchesReference(t *testing.T) {
	type placement struct {
		name string
		m    *ccmatrix.Matrix
	}
	var cases []placement
	add := func(name string, m *ccmatrix.Matrix, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, placement{name, m})
	}
	for bits := 4; bits <= 12; bits++ {
		m, err := place.NewSpiral(bits)
		add(fmt.Sprintf("spiral/%d", bits), m, err)
		m, err = place.NewChessboard(bits)
		add(fmt.Sprintf("chessboard/%d", bits), m, err)
		for _, p := range []place.BCParams{{CoreBits: 2, BlockCells: 1}, {CoreBits: 4, BlockCells: 2}} {
			if p.CoreBits > bits-1 {
				continue
			}
			m, err = place.NewBlockChessboard(bits, p)
			add(fmt.Sprintf("bc%+v/%d", p, bits), m, err)
		}
		if bits%2 == 0 {
			m, err = place.NewAnnealed(bits, place.AnnealConfig{Seed: int64(bits), Moves: 4000})
			add(fmt.Sprintf("annealed/%d", bits), m, err)
		}
	}
	for _, tc := range cases {
		got, err := Find(tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := refFind(tc.m)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d capacitor lists, reference %d", tc.name, len(got), len(want))
		}
		for k := range want {
			if len(got[k]) != len(want[k]) {
				t.Fatalf("%s: C_%d has %d groups, reference %d", tc.name, k, len(got[k]), len(want[k]))
			}
			for i, w := range want[k] {
				g := got[k][i]
				if g.Bit != w.Bit || len(g.Cells) != len(w.Cells) || len(g.Edges) != len(w.Edges) {
					t.Fatalf("%s: C_%d group %d: bit %d, %d cells, %d edges; reference %d, %d, %d",
						tc.name, k, i, g.Bit, len(g.Cells), len(g.Edges), w.Bit, len(w.Cells), len(w.Edges))
				}
				for j := range w.Cells {
					if g.Cells[j] != w.Cells[j] {
						t.Fatalf("%s: C_%d group %d cell %d = %v, reference %v", tc.name, k, i, j, g.Cells[j], w.Cells[j])
					}
				}
				for j := range w.Edges {
					if g.Edges[j] != w.Edges[j] {
						t.Fatalf("%s: C_%d group %d edge %d = %v, reference %v", tc.name, k, i, j, g.Edges[j], w.Edges[j])
					}
				}
			}
		}
	}
}
