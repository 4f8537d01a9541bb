package variation

import (
	"context"
	"math/rand"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// FuzzCovarianceEngines is the differential check of both covariance
// engines against the unit-level oracle, over random symmetric
// placements of 3–8 bits under three positioners: the uniform
// placement grid; per-column x offsets, as routing channels shift
// columns (both fit the structured engine's lattice); and a per-cell
// jitter that leaves every lattice (the dense pair sum). The matrix the
// exact sampler factors, from the FFTAuto covariance and from the
// FFTOff one, must each match the oracle's summed, jittered unit
// covariance within 1e-10 relative, entry by entry. Run longer with:
//
//	go test -fuzz=FuzzCovarianceEngines -fuzztime=30s -run '^$' ./internal/variation
func FuzzCovarianceEngines(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0))
	f.Add(uint8(3), int64(7), uint8(1))
	f.Add(uint8(2), int64(-3), uint8(1))
	f.Add(uint8(5), int64(99), uint8(2))
	f.Add(uint8(4), int64(1<<40), uint8(2))
	tch := tech.FinFET12()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, bitsIn uint8, seed int64, kind uint8) {
		bits := 3 + int(bitsIn%6)
		m, err := place.NewRandomSymmetric(bits, seed)
		if err != nil {
			t.Fatal(err)
		}
		pos := fuzzPositioner(tch, m, seed, kind%3)
		want, err := oracleCapCov(ctx, m, pos, tch)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []FFTMode{FFTAuto, FFTOff} {
			sh, err := NewSharedContext(WithFFTMode(ctx, mode), m, pos, tch)
			if err != nil {
				t.Fatal(err)
			}
			if e := maxRelErr(samplerCov(tch, sh.Analysis(0)), want); !(e <= 1e-10) {
				t.Errorf("%d bits, seed %d, positioner %d, mode %d: sampler covariance vs summed unit covariance rel err = %g, want <= 1e-10",
					bits, seed, kind%3, mode, e)
			}
		}
	})
}

// fuzzPositioner returns the uniform grid (kind 0), the grid with a
// seeded cumulative 0–3 quarter-cell shift before each column, the way
// routing channels widen the gaps (kind 1), or the grid with a seeded
// jitter of up to ±5% of a cell on each cell (kind 2).
func fuzzPositioner(t *tech.Technology, m *ccmatrix.Matrix, seed int64, kind uint8) Positioner {
	grid := GridPositioner(t)
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case 1:
		shift := make([]float64, m.Cols)
		for c := 1; c < m.Cols; c++ {
			shift[c] = shift[c-1] + float64(rng.Intn(4))*t.Unit.W/4
		}
		return func(c geom.Cell) geom.Pt {
			p := grid(c)
			p.X += shift[c.Col]
			return p
		}
	case 2:
		jitter := make([]geom.Pt, m.Rows*m.Cols)
		for i := range jitter {
			jitter[i] = geom.Pt{X: (rng.Float64() - 0.5) * 0.1 * t.Unit.W, Y: (rng.Float64() - 0.5) * 0.1 * t.Unit.H}
		}
		return func(c geom.Cell) geom.Pt {
			p, j := grid(c), jitter[c.Row*m.Cols+c.Col]
			return geom.Pt{X: p.X + j.X, Y: p.Y + j.Y}
		}
	}
	return grid
}
