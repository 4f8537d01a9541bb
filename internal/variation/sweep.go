// The gradient table of a Shared prefix. Every angle evaluates Eq. 3
// over the same cells, so the angle-independent parts — the
// centroid-referenced offsets and squared radii, flattened per
// capacitor — are gathered once per Shared into a gradGeom, and each
// angle runs cstarInto, which allocates nothing.
package variation

import (
	"math"

	"ccdac/internal/tech"
)

// gradGeom is the flattened, angle-independent geometry the gradient
// model is evaluated over: per-unit-cell offsets from the occupied-
// array centroid and their squared radii, with capacitor k owning
// units [off[k], off[k+1]), plus the technology terms of Eq. 3.
type gradGeom struct {
	dx, dy, rr []float64
	off        []int
	gamma      float64 // linear gradient coefficient, 1/um
	quad       float64 // quadratic extension coefficient, 1/um²
	cuFF       float64
}

// newGradGeom builds the table of a gathered geometry.
func newGradGeom(g *cellGeom, t *tech.Technology) *gradGeom {
	n := len(g.flat)
	gg := &gradGeom{
		dx:    make([]float64, n),
		dy:    make([]float64, n),
		rr:    make([]float64, n),
		off:   make([]int, len(g.caps)+1),
		gamma: t.Mis.GradientPPMPerUm * 1e-6,
		quad:  t.Mis.QuadGradientPPMPerUm2 * 1e-6,
		cuFF:  t.Unit.CfF,
	}
	cx, cy := 0.0, 0.0
	for _, cp := range g.flat {
		cx += cp.p.X
		cy += cp.p.Y
	}
	cx /= float64(n)
	cy /= float64(n)
	for i, cp := range g.flat {
		gg.dx[i] = cp.p.X - cx
		gg.dy[i] = cp.p.Y - cy
		gg.rr[i] = gg.dx[i]*gg.dx[i] + gg.dy[i]*gg.dy[i]
	}
	for k, cells := range g.caps {
		gg.off[k+1] = gg.off[k] + len(cells)
	}
	return gg
}

// cstarInto evaluates Eq. 3 at one angle into dst (len = capacitor
// count): C_k* = sum_j C_u * t0/t_j with
// t_j = t0 (1 + gamma (x cos th + y sin th) + q r^2), gamma in 1/um and
// q in 1/um^2 (the quadratic term is an extension; the paper's model
// is linear, q = 0). It is read-only on the table, so concurrent
// angles may share one, and it performs no allocation.
func (gg *gradGeom) cstarInto(dst []float64, thetaRad float64) {
	// Cos/Sin, not Sincos: the golden sweeps pin these bits.
	cosT, sinT := math.Cos(thetaRad), math.Sin(thetaRad)
	for k := 0; k < len(gg.off)-1; k++ {
		sum := 0.0
		for i := gg.off[k]; i < gg.off[k+1]; i++ {
			tRatio := 1 + gg.gamma*(gg.dx[i]*cosT+gg.dy[i]*sinT) + gg.quad*gg.rr[i]
			sum += gg.cuFF / tRatio
		}
		dst[k] = sum
	}
}
