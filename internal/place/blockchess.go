package place

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
)

// BCParams parameterizes a block-chessboard layout (Sec. IV-A).
type BCParams struct {
	// CoreBits is k: capacitors C_0..C_k form the inner full-chessboard
	// core; C_(k+1)..C_N occupy the blocked outer corridor. Must be
	// even (the core is a square chessboard) and satisfy
	// 2 <= CoreBits <= bits-1.
	CoreBits int
	// BlockCells is the block granularity g: the number of consecutive
	// corridor cells assigned per block before alternating to another
	// capacitor. Larger blocks mean fewer, larger connected groups
	// (fewer vias, worse dispersion). Must be >= 1.
	BlockCells int
}

// DefaultBCParams returns the parameter grid the harness sweeps to
// report the paper's "best BC result" (several BC structures are
// considered, Fig. 4). Infeasible core sizes (whose symmetric padding
// would need more dummies than the array has) are filtered out.
func DefaultBCParams(bits int) []BCParams {
	rows, cols, dummies := ArraySize(bits)
	var out []BCParams
	for _, k := range []int{2, 4, 6} {
		if k > bits-1 {
			continue
		}
		if _, _, coreDummies, err := coreDims(rows, cols, 1<<k); err != nil || coreDummies > dummies {
			continue
		}
		for _, g := range []int{1, 2, 4, 8} {
			out = append(out, BCParams{CoreBits: k, BlockCells: g})
		}
	}
	return out
}

// coreDims picks the smallest centered, reflection-symmetric rectangle
// holding at least coreUnits cells inside a rows×cols grid. Side
// parities match the grid so the rectangle is exactly centered.
func coreDims(rows, cols, coreUnits int) (coreR, coreC, coreDummies int, err error) {
	coreR = parityMatchedSide(rows, int(math.Ceil(math.Sqrt(float64(coreUnits)))))
	coreC = parityMatchedSide(cols, (coreUnits+coreR-1)/coreR)
	for coreR*coreC < coreUnits {
		switch {
		case coreR <= coreC && coreR+2 <= rows:
			coreR += 2
		case coreC+2 <= cols:
			coreC += 2
		default:
			return 0, 0, 0, fmt.Errorf("place: block chessboard: core of %d units does not fit %dx%d", coreUnits, rows, cols)
		}
	}
	return coreR, coreC, coreR*coreC - coreUnits, nil
}

// NewBlockChessboard builds a block-chessboard placement: a centered
// full-chessboard core for C_0..C_k surrounded by an outer corridor in
// which C_(k+1)..C_N (and any dummies) are laid out in blocks of
// BlockCells cells, alternated in chessboard fashion along concentric
// rings, every assignment mirrored through the array center.
func NewBlockChessboard(bits int, p BCParams) (*ccmatrix.Matrix, error) {
	if err := checkBits(bits); err != nil {
		return nil, err
	}
	if p.CoreBits < 2 || p.CoreBits > bits-1 || p.CoreBits%2 != 0 {
		return nil, fmt.Errorf("place: block chessboard: core bits %d must be even and in 2..%d", p.CoreBits, bits-1)
	}
	if p.BlockCells < 1 {
		return nil, fmt.Errorf("place: block chessboard: block size %d must be >= 1", p.BlockCells)
	}
	rows, cols, dummies := ArraySize(bits)
	m := ccmatrix.New(rows, cols, bits, 1)
	counts := ccmatrix.UnitCounts(bits)

	// Core region: smallest centered rectangle with area >= 2^k whose
	// side parities match the grid (so it is reflection-symmetric).
	// On dummy-free even grids this is exactly the 2^(k/2) square.
	coreUnits := 1 << p.CoreBits
	coreR, coreC, coreDummies, err := coreDims(rows, cols, coreUnits)
	if err != nil {
		return nil, err
	}
	if coreDummies > dummies {
		return nil, fmt.Errorf("place: block chessboard: core padding needs %d dummies, array has %d", coreDummies, dummies)
	}
	r0, c0 := (rows-coreR)/2, (cols-coreC)/2

	inCore := func(c geom.Cell) bool {
		return c.Row >= r0 && c.Row < r0+coreR && c.Col >= c0 && c.Col < c0+coreC
	}

	// Fill the core: pure chessboard when it is an exact power-of-two
	// square; otherwise dispersed symmetric-pair dealing with the core
	// dummies folded in.
	if coreDummies == 0 && coreR == coreC && coreR&(coreR-1) == 0 {
		sub, err := NewChessboard(p.CoreBits)
		if err != nil {
			return nil, err
		}
		if sub.Rows != coreR || sub.Cols != coreC {
			return nil, fmt.Errorf("place: block chessboard: core chessboard is %dx%d, want %dx%d", sub.Rows, sub.Cols, coreR, coreC)
		}
		for r := 0; r < coreR; r++ {
			for c := 0; c < coreC; c++ {
				m.Set(geom.Cell{Row: r0 + r, Col: c0 + c}, sub.At(geom.Cell{Row: r, Col: c}))
			}
		}
	} else {
		var coreCells []geom.Cell
		for r := r0; r < r0+coreR; r++ {
			for c := c0; c < c0+coreC; c++ {
				coreCells = append(coreCells, geom.Cell{Row: r, Col: c})
			}
		}
		demands := make([]pairDemand, 0, p.CoreBits+2)
		if coreDummies > 0 {
			demands = append(demands, pairDemand{bit: ccmatrix.Dummy, need: coreDummies, total: coreDummies})
		}
		for k := p.CoreBits; k >= 0; k-- {
			demands = append(demands, pairDemand{bit: k, need: counts[k], total: counts[k]})
		}
		if err := assignSymmetricPairs(m, interleavedOrder(coreCells), demands); err != nil {
			return nil, fmt.Errorf("place: block chessboard core: %w", err)
		}
	}

	// Outer corridor: concentric rings around the core, walked by
	// angle, filled with g-cell blocks dealt largest-remaining-fraction
	// across C_(k+1)..C_N and the leftover dummies, each placement
	// mirrored through the center. Each corridor cell's ring and angle
	// are computed once and sorted with it; (ring, angle, row, col) is
	// a total order, so the walk does not depend on the sort algorithm.
	type corridorCell struct {
		ring  int
		angle float64
		cell  geom.Cell
	}
	cy, cx := float64(rows-1)/2, float64(cols-1)/2
	corridor := make([]corridorCell, 0, rows*cols-coreR*coreC)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := geom.Cell{Row: r, Col: c}
			if inCore(cell) {
				continue
			}
			dr := 0
			if r < r0 {
				dr = r0 - r
			} else if r >= r0+coreR {
				dr = r - (r0 + coreR - 1)
			}
			dc := 0
			if c < c0 {
				dc = c0 - c
			} else if c >= c0+coreC {
				dc = c - (c0 + coreC - 1)
			}
			a := math.Atan2(float64(r)-cy, float64(c)-cx)
			if a < 0 {
				a += 2 * math.Pi
			}
			corridor = append(corridor, corridorCell{ring: max(dr, dc), angle: a, cell: cell})
		}
	}
	slices.SortFunc(corridor, func(a, b corridorCell) int {
		return cmp.Or(
			cmp.Compare(a.ring, b.ring),
			cmp.Compare(a.angle, b.angle),
			cmp.Compare(a.cell.Row, b.cell.Row),
			cmp.Compare(a.cell.Col, b.cell.Col),
		)
	})
	outer := make([]geom.Cell, len(corridor))
	for i, cc := range corridor {
		outer[i] = cc.cell
	}

	outerDummies := dummies - coreDummies
	demands := make([]pairDemand, 0, bits-p.CoreBits+1)
	for k := bits; k > p.CoreBits; k-- {
		demands = append(demands, pairDemand{bit: k, need: counts[k], total: counts[k]})
	}
	if outerDummies > 0 {
		demands = append(demands, pairDemand{bit: ccmatrix.Dummy, need: outerDummies, total: outerDummies})
	}
	if err := assignBlocks(m, outer, demands, p.BlockCells); err != nil {
		return nil, fmt.Errorf("place: block chessboard corridor: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("place: block chessboard %d-bit %+v: %w", bits, p, err)
	}
	return m, nil
}

// parityMatchedSide returns the smallest side length s >= want with
// s ≡ dim (mod 2), clamped to dim. A parity-matched side keeps the
// centered rectangle reflection-symmetric within the dim-cell grid.
func parityMatchedSide(dim, want int) int {
	s := want
	if s < 1 {
		s = 1
	}
	if s%2 != dim%2 {
		s++
	}
	if s > dim {
		s = dim
	}
	return s
}

// assignBlocks deals cells to demands in blocks of g consecutive cells
// along the walk order, mirroring every cell through the array center.
// Each (cell, reflection) pair counts 2 units toward the active block.
func assignBlocks(m *ccmatrix.Matrix, walk []geom.Cell, demands []pairDemand, g int) error {
	need := 0
	for _, d := range demands {
		need += d.need
	}
	avail := 0
	for _, c := range walk {
		if m.IsEmpty(c) {
			avail++
		}
	}
	if need != avail {
		return fmt.Errorf("place: block assignment: %d empty cells for %d demanded units", avail, need)
	}
	cur := -1      // index into demands of the active block's capacitor
	remaining := 0 // cells left in the active block
	pick := func() int {
		best, bestFrac := -1, -1.0
		for i, d := range demands {
			if d.need < 2 {
				continue
			}
			frac := float64(d.need) / float64(d.total)
			if frac > bestFrac {
				best, bestFrac = i, frac
			}
		}
		return best
	}
	for _, c := range walk {
		if !m.IsEmpty(c) {
			continue
		}
		r := c.Reflect(m.Rows, m.Cols)
		if r == c {
			return fmt.Errorf("place: block assignment: unexpected self-reflective corridor cell %v", c)
		}
		if !m.IsEmpty(r) {
			return fmt.Errorf("place: block assignment: reflection %v of %v already filled", r, c)
		}
		if remaining <= 0 || cur < 0 || demands[cur].need < 2 {
			cur = pick()
			if cur < 0 {
				return fmt.Errorf("place: block assignment: spare cell %v with no remaining demand", c)
			}
			// A block is g contiguous corridor cells; its mirror image
			// contributes another g, so each block consumes 2g units.
			remaining = 2 * g
		}
		m.Set(c, demands[cur].bit)
		m.Set(r, demands[cur].bit)
		demands[cur].need -= 2
		remaining -= 2
	}
	for _, d := range demands {
		if d.need != 0 {
			return fmt.Errorf("place: block assignment: C_%d left with %d unplaced units", d.bit, d.need)
		}
	}
	return nil
}
