// Package tech models the process technology that the common-centroid
// placement and routing flow targets: reserved-direction metal layers
// with per-unit-length resistance and capacitance, via resistance, the
// MOM unit-capacitor geometry, and the statistical mismatch parameters
// of the paper's Sec. II-B/II-C.
//
// The paper evaluates on a commercial 12nm FinFET process whose tables
// are proprietary. FinFET12 is a synthetic, internally-consistent
// 12nm-class parameter set with the properties that drive the paper's
// results: high wire resistance in low metals, high via resistance, a
// 64 nm routing pitch with width quantization, and a 5 fF square MOM
// unit capacitor built in M1-M3. All of the paper's comparisons are
// relative between placement styles on one fixed technology, so any
// such parameter set preserves the reported orderings and tradeoffs.
package tech

import (
	"errors"
	"fmt"
	"math"

	"ccdac/internal/geom"
)

// Layer describes one reserved-direction routing metal layer.
type Layer struct {
	// Name is the layer name, e.g. "M1".
	Name string
	// Dir is the reserved routing direction of the layer.
	Dir geom.Dir
	// ROhmPerUm is the sheet-derived wire resistance per micron of a
	// minimum-width (one-track) wire on this layer.
	ROhmPerUm float64
	// CfFPerUm is the wire capacitance to ground per micron.
	CfFPerUm float64
	// Pitch is the routing pitch (wire width + minimum spacing) in microns.
	// Wire widths are quantized to multiples of the track width, which is
	// why parallel same-net wires are used instead of wide wires.
	Pitch float64
}

// UnitCap describes the MOM unit capacitor cell.
type UnitCap struct {
	// W, H are the outline of one unit capacitor cell in microns.
	W, H float64
	// CfF is the nominal unit capacitance C_u in fF.
	CfF float64
	// AbutLen is the length in microns of the via-free bottom-plate
	// abutment connection between two adjacent same-bit unit cells.
	// MOM caps span M1-M3, so a connection in a layer's reserved
	// direction needs no via (paper Sec. IV-B1).
	AbutLen float64
	// BottomLayer and TopLayer index into Technology.Layers for the
	// bottom-plate and top-plate terminal layers.
	BottomLayer, TopLayer int
}

// Mismatch carries the statistical variation parameters of Sec. II-C.
type Mismatch struct {
	// Af2 is A_f^2 in (fraction^2 · fF · um^2 terms); the unit-cap
	// relative sigma is sigma_u/C_u = sqrt(Af2fFPct/100 / C_u[fF]):
	// the paper cites A_f^2 = 0.85% x 1 fF from Tripathi & Murmann,
	// i.e. the relative variance of a 1 fF capacitor is 0.85%^2... in
	// the paper's shorthand the variance scales as 1/C. We keep the
	// paper's form directly:
	//
	//   sigma_u^2 / C_u^2 = (Af2Pct/100)^2 * (AfRefFF / C_u)
	//
	// with Af2Pct = 0.85 and AfRefFF = 1.
	Af2Pct  float64
	AfRefFF float64
	// RhoU is the nearest-neighbor correlation base rho_u in (0,1).
	RhoU float64
	// LcUm is the correlation length L_c in microns.
	LcUm float64
	// GradientPPMPerUm is the linear oxide-gradient magnitude gamma in
	// parts-per-million of t_0 per micron of distance from the array center.
	GradientPPMPerUm float64
	// QuadGradientPPMPerUm2 is an optional rotationally-symmetric
	// second-order ("bowl") oxide-gradient term in ppm of t_0 per
	// square micron of radial distance. The paper's model (Eq. 3) is
	// linear only (the default 0); the quadratic extension exposes the
	// classic weakness of ring-like placements: point reflection
	// cancels any linear gradient but leaves r^2 terms, which differ
	// between inner (LSB) and outer (MSB) rings.
	QuadGradientPPMPerUm2 float64
}

// Technology aggregates every process parameter the flow consumes.
type Technology struct {
	// Name identifies the parameter set.
	Name string
	// Layers are the routing metal layers, ordered bottom-up (M1 first).
	Layers []Layer
	// ViaROhm is the resistance of a single via cut between adjacent layers.
	ViaROhm float64
	// CouplingC0fFPerUm is the sidewall coupling capacitance per micron
	// at minimum spacing; coupling at spacing s falls off as
	// CouplingC0 * (SMin / s) (a standard 1/s fringe model).
	CouplingC0fFPerUm float64
	// SMinUm is the minimum wire spacing in microns.
	SMinUm float64
	// Unit is the MOM unit capacitor cell.
	Unit UnitCap
	// Mis carries the statistical mismatch model parameters.
	Mis Mismatch
	// VRef is the DAC reference voltage in volts (only ratios matter
	// for INL/DNL; kept for the transfer-function model).
	VRef float64
	// SwitchROhm is the on-resistance of the bottom-plate switch/driver
	// in series with each bit's charging network. It does not scale
	// with parallel routing, which is what bounds the parallel-wire
	// gain of Fig. 6(a) at large wire counts.
	SwitchROhm float64
	// TopPlateCfFPerUm is the capacitance to substrate per micron of
	// top-plate routing (the C^TS contributor). Top-plate wires run
	// over the array, so this is smaller than the general wire C.
	TopPlateCfFPerUm float64
}

// FinFET12 returns the synthetic 12nm-class FinFET technology used for
// all experiments. See the package comment for the calibration rationale.
func FinFET12() *Technology {
	return &Technology{
		Name: "finfet12-synthetic",
		Layers: []Layer{
			{Name: "M1", Dir: geom.Horizontal, ROhmPerUm: 28.0, CfFPerUm: 0.20, Pitch: 0.064},
			{Name: "M2", Dir: geom.Vertical, ROhmPerUm: 22.0, CfFPerUm: 0.19, Pitch: 0.064},
			{Name: "M3", Dir: geom.Horizontal, ROhmPerUm: 16.0, CfFPerUm: 0.18, Pitch: 0.080},
		},
		ViaROhm:           40.0,
		CouplingC0fFPerUm: 0.055,
		SMinUm:            0.064,
		Unit: UnitCap{
			W:           1.76,
			H:           1.76,
			CfF:         5.0,
			AbutLen:     0.20,
			BottomLayer: 0, // M1
			TopLayer:    1, // M2
		},
		Mis: Mismatch{
			Af2Pct:           0.85,
			AfRefFF:          1.0,
			RhoU:             0.9,
			LcUm:             1000.0, // 1 mm
			GradientPPMPerUm: 10.0,
		},
		VRef:       1.0,
		SwitchROhm: 15.0,
		// Top-plate wires run over the capacitor array, shielded from
		// the substrate by the bottom plates; the per-unit C^TS is two
		// orders below the channel-wire capacitance. Calibrated so an
		// 8-bit array extracts ~0.1 fF total C^TS as in the paper's
		// Table I.
		TopPlateCfFPerUm: 0.0002,
	}
}

// Bulk65 returns a synthetic 65nm-class bulk technology for contrast
// experiments: the paper notes that prior common-centroid techniques
// target older bulk nodes where per-unit wire and via resistances are
// far lower, so via-heavy layouts (chessboard) are not strongly
// penalized there. Relative to FinFET12: ~6x lower wire resistance,
// ~13x lower via resistance, larger pitches, bigger unit cells (lower
// MOM capacitance density), and stronger random mismatch (larger A_f).
func Bulk65() *Technology {
	return &Technology{
		Name: "bulk65-synthetic",
		Layers: []Layer{
			{Name: "M1", Dir: geom.Horizontal, ROhmPerUm: 4.5, CfFPerUm: 0.16, Pitch: 0.18},
			{Name: "M2", Dir: geom.Vertical, ROhmPerUm: 3.5, CfFPerUm: 0.15, Pitch: 0.20},
			{Name: "M3", Dir: geom.Horizontal, ROhmPerUm: 2.5, CfFPerUm: 0.15, Pitch: 0.20},
		},
		ViaROhm:           3.0,
		CouplingC0fFPerUm: 0.045,
		SMinUm:            0.18,
		Unit: UnitCap{
			W:           3.6,
			H:           3.6,
			CfF:         5.0,
			AbutLen:     0.40,
			BottomLayer: 0,
			TopLayer:    1,
		},
		Mis: Mismatch{
			Af2Pct:           1.5,
			AfRefFF:          1.0,
			RhoU:             0.9,
			LcUm:             1000.0,
			GradientPPMPerUm: 10.0,
		},
		VRef:             1.0,
		SwitchROhm:       40.0,
		TopPlateCfFPerUm: 0.0004,
	}
}

// Validate checks the internal consistency of a technology description.
func (t *Technology) Validate() error {
	if t == nil {
		return errors.New("tech: nil technology")
	}
	if len(t.Layers) < 2 {
		return fmt.Errorf("tech %q: need at least 2 routing layers, have %d", t.Name, len(t.Layers))
	}
	for i, l := range t.Layers {
		if l.ROhmPerUm <= 0 || l.CfFPerUm <= 0 || l.Pitch <= 0 {
			return fmt.Errorf("tech %q: layer %s has non-positive parameters", t.Name, l.Name)
		}
		if i > 0 && t.Layers[i-1].Dir == l.Dir {
			return fmt.Errorf("tech %q: adjacent layers %s and %s share direction %v (reserved-direction violation)",
				t.Name, t.Layers[i-1].Name, l.Name, l.Dir)
		}
	}
	if t.ViaROhm <= 0 {
		return fmt.Errorf("tech %q: via resistance must be positive", t.Name)
	}
	if t.Unit.W <= 0 || t.Unit.H <= 0 || t.Unit.CfF <= 0 {
		return fmt.Errorf("tech %q: unit capacitor has non-positive geometry", t.Name)
	}
	if t.Unit.BottomLayer < 0 || t.Unit.BottomLayer >= len(t.Layers) ||
		t.Unit.TopLayer < 0 || t.Unit.TopLayer >= len(t.Layers) {
		return fmt.Errorf("tech %q: unit capacitor terminal layers out of range", t.Name)
	}
	if t.Unit.BottomLayer == t.Unit.TopLayer {
		return fmt.Errorf("tech %q: bottom and top plates must terminate on different layers", t.Name)
	}
	if t.Mis.RhoU <= 0 || t.Mis.RhoU >= 1 {
		return fmt.Errorf("tech %q: rho_u must lie in (0,1), got %g", t.Name, t.Mis.RhoU)
	}
	if t.Mis.LcUm <= 0 {
		return fmt.Errorf("tech %q: correlation length must be positive", t.Name)
	}
	if t.SMinUm <= 0 || t.CouplingC0fFPerUm < 0 {
		return fmt.Errorf("tech %q: bad spacing/coupling parameters", t.Name)
	}
	if t.SwitchROhm < 0 {
		return fmt.Errorf("tech %q: switch resistance must be non-negative", t.Name)
	}
	return nil
}

// CouplingfFPerUm returns the per-micron sidewall coupling capacitance
// c_c(s) between two parallel wires at spacing s microns.
func (t *Technology) CouplingfFPerUm(s float64) float64 {
	if s <= 0 {
		s = t.SMinUm
	}
	return t.CouplingC0fFPerUm * (t.SMinUm / s)
}

// SigmaU returns the absolute standard deviation sigma_u (in fF) of one
// unit capacitor under the paper's random-variation model:
// sigma_u^2 = A_f^2/(W·H), normalized so the relative sigma of a 1 fF
// reference capacitor is Af2Pct percent.
func (t *Technology) SigmaU() float64 {
	rel := t.Mis.Af2Pct / 100 * math.Sqrt(t.Mis.AfRefFF/t.Unit.CfF)
	return rel * t.Unit.CfF
}

// rhoQuantInv is the quantization of squared distances in rho
// evaluations: d² is rounded to units of 1e-6 um² (1e-3 um in d near
// d = 1 um) before the exp, so equal-in-quantum distances — and the
// RhoLocal memo keys — give bit-identical values. With Lc in the
// hundreds of microns, the rho error this introduces is below 1e-10
// relative — far under the covariance equivalence budget.
const rhoQuantInv = 1e6

// RhoTable is the spatial-correlation evaluator of one (RhoU, LcUm)
// parameter pair: rho(d) = exp(d · ln(rho_u)/Lc), evaluated at the
// quantized d². The exp form replaces the seed's per-pair math.Pow.
// It holds no state beyond its coefficient, so it is safe for
// concurrent use; the dense pair sums put a goroutine-local RhoLocal
// memo in front of it.
type RhoTable struct {
	// coef is ln(rho_u)/Lc: rho(d) = exp(coef·d).
	coef float64
}

// Rho returns rho_u^(d/Lc) for a separation of d microns.
func (rt *RhoTable) Rho(dUm float64) float64 { return rt.RhoSq(dUm * dUm) }

// RhoSq returns rho_u^(d/Lc) given the squared separation d² in square
// microns — at d²'s quantization point, or by the unquantized formula
// out of quantization range (huge, negative or NaN d²). Hot loops call
// this form: it skips the per-pair hypot as well as the pow.
func (rt *RhoTable) RhoSq(d2Um float64) float64 {
	if key, ok := rhoKeyOf(d2Um); ok {
		return rt.atKey(key)
	}
	return math.Exp(math.Sqrt(d2Um) * rt.coef)
}

// Key returns d²'s evaluation key: arguments with equal keys get
// bit-equal RhoSq values. In range it is the quantization point;
// out of range (huge, negative or NaN d²) it is d²'s own bits, which
// never merge two arguments. Those bits are at or above 2^62 (a
// negative or NaN value, or one of at least ~4.6e12 µm²) and every
// quantization point is below it, so the two kinds of key never meet,
// and over d² ≥ 0 the key is non-decreasing in d².
func (rt *RhoTable) Key(d2Um float64) uint64 {
	if key, ok := rhoKeyOf(d2Um); ok {
		return uint64(key)
	}
	return math.Float64bits(d2Um)
}

// rhoKeyOf quantizes d² to its memo key; ok is false out of
// quantization range (huge, negative, or NaN).
func rhoKeyOf(d2Um float64) (key int64, ok bool) {
	q := d2Um * rhoQuantInv
	if !(q >= 0 && q < 1<<62) {
		return 0, false
	}
	return int64(q + 0.5), true
}

// atKey evaluates rho at a quantization point.
func (rt *RhoTable) atKey(key int64) float64 {
	return math.Exp(math.Sqrt(float64(key)/rhoQuantInv) * rt.coef)
}

// RhoLocal is a goroutine-local memo over a RhoTable: a plain map from
// quantized d² to rho for the dense pair sums, whose ~n²/2 evaluations
// collapse onto the few hundred to few thousand distinct distances a
// layout has. Values are key-derived, so a local memo serves exactly
// what the table computes — results do not depend on which goroutine
// (or how many) evaluated them. Not safe for concurrent use; create
// one per worker with Local.
type RhoLocal struct {
	rt      *RhoTable
	m       map[int64]float64
	calls   int64
	fetches int64
}

// Local returns a fresh goroutine-local memo over the table.
func (rt *RhoTable) Local() *RhoLocal {
	return &RhoLocal{rt: rt, m: make(map[int64]float64, 256)}
}

// RhoSq returns rho_u^(d/Lc) given the squared separation d², serving
// from the local memo and evaluating on a miss.
func (l *RhoLocal) RhoSq(d2Um float64) float64 {
	l.calls++
	key, ok := rhoKeyOf(d2Um)
	if !ok {
		l.fetches++
		return l.rt.RhoSq(d2Um)
	}
	if v, ok := l.m[key]; ok {
		return v
	}
	l.fetches++
	v := l.rt.atKey(key)
	l.m[key] = v
	return v
}

// Stats reports the memo's evaluation count and how many of those had
// to be computed; calls - fetches is the local memo hit count.
func (l *RhoLocal) Stats() (calls, fetches int64) {
	return l.calls, l.fetches
}

// RhoTable returns the correlation evaluator for the technology's
// current mismatch parameters.
func (t *Technology) RhoTable() *RhoTable {
	return &RhoTable{coef: math.Log(t.Mis.RhoU) / t.Mis.LcUm}
}

// Rho returns the spatial correlation coefficient rho_u^(d/Lc) between
// two unit capacitors separated by d microns (Eqs. 4-5), via the
// exp-form evaluator (see RhoTable).
func (t *Technology) Rho(dUm float64) float64 {
	return t.RhoTable().Rho(dUm)
}

// HorizontalLayer returns the index of the lowest layer whose reserved
// direction is horizontal.
func (t *Technology) HorizontalLayer() int { return t.layerWithDir(geom.Horizontal) }

// VerticalLayer returns the index of the lowest layer whose reserved
// direction is vertical.
func (t *Technology) VerticalLayer() int { return t.layerWithDir(geom.Vertical) }

func (t *Technology) layerWithDir(d geom.Dir) int {
	for i, l := range t.Layers {
		if l.Dir == d {
			return i
		}
	}
	return -1
}

// WireR returns the resistance in ohms of len microns of minimum-width
// wire on layer li, divided across p parallel tracks.
func (t *Technology) WireR(li int, lenUm float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return t.Layers[li].ROhmPerUm * lenUm / float64(p)
}

// WireC returns the ground capacitance in fF of len microns of wire on
// layer li, multiplied across p parallel tracks.
func (t *Technology) WireC(li int, lenUm float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	return t.Layers[li].CfFPerUm * lenUm * float64(p)
}

// ViaR returns the effective resistance in ohms of a via array with
// p-by-p redundant cuts (p parallel wires on each side allow a p^2 via
// array; paper Sec. IV-B4).
func (t *Technology) ViaR(p int) float64 {
	if p < 1 {
		p = 1
	}
	return t.ViaROhm / float64(p*p)
}
