// Package ccmatrix represents the gridded common-centroid matrix of
// unit capacitors (paper Sec. II-C) and the geometric quality metrics
// defined over it: per-capacitor centroid error and dispersion.
//
// An N-bit binary-weighted DAC uses N+1 capacitors C_0..C_N with unit
// counts n_0 = n_1 = 1 and n_k = 2^(k-1) for k >= 2 (so C_1 also has
// one unit); the total is 2^N unit cells (Eq. 1). C_0 is the
// always-grounded terminating capacitor.
package ccmatrix

import (
	"fmt"
	"math"

	"ccdac/internal/geom"
)

// Dummy marks a cell occupied by a dummy capacitor (odd-N fill).
const Dummy = -1

// Empty marks an unassigned cell; a valid placement has none.
const Empty = -2

// UnitCounts returns the unit-cell counts [n_0, ..., n_N] for an N-bit
// binary-weighted DAC: [1, 1, 2, 4, ..., 2^(N-1)].
func UnitCounts(bits int) []int {
	n := make([]int, bits+1)
	n[0], n[1] = 1, 1
	for k := 2; k <= bits; k++ {
		n[k] = 1 << (k - 1)
	}
	return n
}

// TotalUnits returns sum of UnitCounts = 2^N.
func TotalUnits(bits int) int { return 1 << bits }

// Matrix is a rows×cols common-centroid placement. Each cell holds the
// capacitor index 0..Bits it belongs to, or Dummy, or Empty.
type Matrix struct {
	Rows, Cols int
	// Bits is the DAC resolution N; capacitors are C_0..C_N.
	Bits int
	// Scale multiplies every capacitor's unit count. The chessboard
	// method of [7] doubles all unit capacitors for odd N (paper
	// Table I, note 1); Scale is 2 there and 1 otherwise.
	Scale int
	cells []int
}

// New returns an all-Empty matrix for an N-bit DAC.
func New(rows, cols, bits, scale int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("ccmatrix: non-positive dimensions %dx%d", rows, cols))
	}
	if bits < 2 {
		panic(fmt.Sprintf("ccmatrix: need at least 2 bits, got %d", bits))
	}
	if scale < 1 {
		scale = 1
	}
	m := &Matrix{Rows: rows, Cols: cols, Bits: bits, Scale: scale, cells: make([]int, rows*cols)}
	for i := range m.cells {
		m.cells[i] = Empty
	}
	return m
}

// At returns the capacitor index at cell c.
func (m *Matrix) At(c geom.Cell) int { return m.cells[c.Row*m.Cols+c.Col] }

// Set assigns cell c to capacitor bit (or Dummy).
func (m *Matrix) Set(c geom.Cell, bit int) {
	if !c.In(m.Rows, m.Cols) {
		panic(fmt.Sprintf("ccmatrix: cell %v outside %dx%d", c, m.Rows, m.Cols))
	}
	if bit != Dummy && (bit < 0 || bit > m.Bits) {
		panic(fmt.Sprintf("ccmatrix: capacitor index %d out of range 0..%d", bit, m.Bits))
	}
	m.cells[c.Row*m.Cols+c.Col] = bit
}

// IsEmpty reports whether cell c is unassigned.
func (m *Matrix) IsEmpty(c geom.Cell) bool { return m.At(c) == Empty }

// CellsOf returns all cells assigned to capacitor bit (or Dummy), in
// row-major order (bottom row first).
func (m *Matrix) CellsOf(bit int) []geom.Cell {
	var out []geom.Cell
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			cell := geom.Cell{Row: r, Col: c}
			if m.At(cell) == bit {
				out = append(out, cell)
			}
		}
	}
	return out
}

// Counts returns the number of cells assigned to each capacitor
// (index 0..Bits), plus dummies and empties.
func (m *Matrix) Counts() (counts []int, dummies, empties int) {
	counts = make([]int, m.Bits+1)
	for _, v := range m.cells {
		switch {
		case v == Dummy:
			dummies++
		case v == Empty:
			empties++
		default:
			counts[v]++
		}
	}
	return counts, dummies, empties
}

// Validate checks that the placement is complete and correctly
// binary-weighted: every cell assigned, and each C_k holds exactly
// Scale*n_k unit cells.
func (m *Matrix) Validate() error {
	counts, _, empties := m.Counts()
	if empties > 0 {
		return fmt.Errorf("ccmatrix: %d unassigned cells", empties)
	}
	want := UnitCounts(m.Bits)
	for k, n := range want {
		if counts[k] != m.Scale*n {
			return fmt.Errorf("ccmatrix: C_%d has %d unit cells, want %d", k, counts[k], m.Scale*n)
		}
	}
	return nil
}

// Center returns the common-centroid point of the array in cell
// coordinates: ((Rows-1)/2, (Cols-1)/2) as floats.
func (m *Matrix) Center() (row, col float64) {
	return float64(m.Rows-1) / 2, float64(m.Cols-1) / 2
}

// CentroidOffset returns the distance (in cell pitches) between the
// centroid of capacitor bit's unit cells and the array center. Perfect
// common-centroid placement gives 0 for every capacitor with an even
// unit count; C_0 and C_1 (single units) cannot achieve 0 and are
// placed diagonally adjacent to the center instead.
func (m *Matrix) CentroidOffset(bit int) float64 {
	cells := m.CellsOf(bit)
	if len(cells) == 0 {
		return math.NaN()
	}
	var sr, sc float64
	for _, c := range cells {
		sr += float64(c.Row)
		sc += float64(c.Col)
	}
	cr, cc := m.Center()
	dr := sr/float64(len(cells)) - cr
	dc := sc/float64(len(cells)) - cc
	return math.Hypot(dr, dc)
}

// MaxCentroidOffset returns the worst centroid offset over capacitors
// C_lo..C_N. Pass lo=2 to exclude the single-unit C_0/C_1, which can
// never be centered exactly.
func (m *Matrix) MaxCentroidOffset(lo int) float64 {
	worst := 0.0
	for k := lo; k <= m.Bits; k++ {
		if off := m.CentroidOffset(k); off > worst {
			worst = off
		}
	}
	return worst
}

// Dispersion returns the dispersion of capacitor bit: the radius of
// gyration of its unit cells about the array center, normalized by the
// radius of gyration of the full array. Values near 1 mean the
// capacitor's units are spread like the array itself (good matching
// under spatially-correlated random variation); small values mean the
// units are clustered (bad matching, good routing).
func (m *Matrix) Dispersion(bit int) float64 {
	cells := m.CellsOf(bit)
	if len(cells) == 0 {
		return math.NaN()
	}
	cr, cc := m.Center()
	capGyr := 0.0
	for _, c := range cells {
		dr := float64(c.Row) - cr
		dc := float64(c.Col) - cc
		capGyr += dr*dr + dc*dc
	}
	capGyr /= float64(len(cells))

	arrGyr := 0.0
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			dr := float64(r) - cr
			dc := float64(c) - cc
			arrGyr += dr*dr + dc*dc
		}
	}
	arrGyr /= float64(m.Rows * m.Cols)
	if arrGyr == 0 {
		return 1
	}
	return math.Sqrt(capGyr / arrGyr)
}

// MeanDispersion averages Dispersion over C_2..C_N weighted by unit
// count; it summarizes how chessboard-like a placement is.
func (m *Matrix) MeanDispersion() float64 {
	total, weight := 0.0, 0.0
	for k := 2; k <= m.Bits; k++ {
		n := float64(len(m.CellsOf(k)))
		total += n * m.Dispersion(k)
		weight += n
	}
	if weight == 0 {
		return math.NaN()
	}
	return total / weight
}

// IsSymmetric reports whether the assignment is invariant under point
// reflection through the array center, i.e. every cell and its
// reflection hold the same capacitor. Single-unit capacitors C_0/C_1
// are exempted when they occupy mutually-reflected cells (the paper
// places them diagonally opposite near the center).
func (m *Matrix) IsSymmetric() bool {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			cell := geom.Cell{Row: r, Col: c}
			a := m.At(cell)
			b := m.At(cell.Reflect(m.Rows, m.Cols))
			if a == b {
				continue
			}
			// C_0 and C_1 may swap under reflection.
			if (a == 0 && b == 1) || (a == 1 && b == 0) {
				continue
			}
			return false
		}
	}
	return true
}

// AdjacencySameBit returns the number of 4-neighbor cell pairs sharing
// a capacitor index; high values mean large connected groups and cheap
// routing (spiral), zero means chessboard.
func (m *Matrix) AdjacencySameBit() int {
	n := 0
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			bit := m.At(geom.Cell{Row: r, Col: c})
			if bit < 0 {
				continue
			}
			// Count east and north neighbors only so each pair counts once.
			if c+1 < m.Cols && m.At(geom.Cell{Row: r, Col: c + 1}) == bit {
				n++
			}
			if r+1 < m.Rows && m.At(geom.Cell{Row: r + 1, Col: c}) == bit {
				n++
			}
		}
	}
	return n
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Bits: m.Bits, Scale: m.Scale, cells: make([]int, len(m.cells))}
	copy(c.cells, m.cells)
	return c
}

// SwapCells exchanges the assignments of two cells.
func (m *Matrix) SwapCells(a, b geom.Cell) {
	ia, ib := a.Row*m.Cols+a.Col, b.Row*m.Cols+b.Col
	m.cells[ia], m.cells[ib] = m.cells[ib], m.cells[ia]
}

// String renders the matrix as ASCII rows (top row first), one
// character-pair per cell: capacitor index in hex, 'd' for dummies,
// '.' for empties. Useful in tests and debugging.
func (m *Matrix) String() string {
	out := make([]byte, 0, (m.Rows+1)*(m.Cols*2+1))
	for r := m.Rows - 1; r >= 0; r-- {
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				out = append(out, ' ')
			}
			switch v := m.At(geom.Cell{Row: r, Col: c}); {
			case v == Dummy:
				out = append(out, 'd')
			case v == Empty:
				out = append(out, '.')
			case v < 10:
				out = append(out, byte('0'+v))
			default:
				out = append(out, byte('a'+v-10))
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
