// Package paperdata embeds the numbers published in the paper's
// Tables I-III and provides rank-correlation comparisons against this
// repository's measurements. Absolute values cannot match (the paper
// uses a proprietary 12nm PDK; see DESIGN.md), so reproduction quality
// is judged on *shape*: per-metric Spearman rank correlation across
// every (method, bits) cell both sides report, and per-row winner
// agreement.
package paperdata

import (
	"fmt"
	"math"
	"sort"
)

// Method keys match internal/exp.
const (
	Lin    = "[1]"
	Burcea = "[7]"
	Spiral = "S"
	BC     = "BC"
)

// Cell is one (bits, method) entry of the paper's Tables I and II.
type Cell struct {
	Bits   int
	Method string
	// Table I.
	CTSfF, CWirefF, CBBfF float64
	NV                    float64
	LUm                   float64
	RVkOhm, RTotalkOhm    float64
	// Table II.
	AreaUm2, DNL, INL, F3dBMHz float64
}

// Cells returns every populated cell of the paper's Tables I and II.
// The paper leaves [1] blank at 7 and 10 bits (and prints a note about
// odd sizes); blanks are simply absent here.
func Cells() []Cell {
	return []Cell{
		// 6-bit
		{Bits: 6, Method: Lin, CTSfF: 0.02, CWirefF: 1.8, CBBfF: 13.4, NV: 42, LUm: 149, RVkOhm: 0.3, RTotalkOhm: 1.2,
			AreaUm2: 200, DNL: 0.00, INL: 0.01, F3dBMHz: 929},
		{Bits: 6, Method: Burcea, CTSfF: 0.03, CWirefF: 2.8, CBBfF: 6.5, NV: 81, LUm: 229, RVkOhm: 1.1, RTotalkOhm: 2.6,
			AreaUm2: 205, DNL: 0.00, INL: 0.01, F3dBMHz: 434},
		{Bits: 6, Method: Spiral, CTSfF: 0.03, CWirefF: 0.9, CBBfF: 0.5, NV: 43, LUm: 77, RVkOhm: 0.002, RTotalkOhm: 0.03,
			AreaUm2: 200, DNL: 0.01, INL: 0.01, F3dBMHz: 39613},
		{Bits: 6, Method: BC, CTSfF: 0.03, CWirefF: 1.4, CBBfF: 1.4, NV: 78, LUm: 120, RVkOhm: 0.03, RTotalkOhm: 0.26,
			AreaUm2: 204, DNL: 0.01, INL: 0.01, F3dBMHz: 8651},
		// 7-bit ([1] absent)
		{Bits: 7, Method: Burcea, CTSfF: 0.09, CWirefF: 12.6, CBBfF: 28.9, NV: 295, LUm: 1862, RVkOhm: 4.1, RTotalkOhm: 10.0,
			AreaUm2: 819, DNL: 0.01, INL: 0.01, F3dBMHz: 25},
		{Bits: 7, Method: Spiral, CTSfF: 0.05, CWirefF: 1.9, CBBfF: 1.5, NV: 46, LUm: 167, RVkOhm: 0.002, RTotalkOhm: 0.05,
			AreaUm2: 427, DNL: 0.02, INL: 0.02, F3dBMHz: 10862},
		{Bits: 7, Method: BC, CTSfF: 0.06, CWirefF: 2.0, CBBfF: 1.5, NV: 82, LUm: 171, RVkOhm: 0.03, RTotalkOhm: 0.30,
			AreaUm2: 459, DNL: 0.01, INL: 0.01, F3dBMHz: 6639},
		// 8-bit
		{Bits: 8, Method: Lin, CTSfF: 0.07, CWirefF: 4.8, CBBfF: 21.7, NV: 92, LUm: 393, RVkOhm: 1.0, RTotalkOhm: 3.1,
			AreaUm2: 803, DNL: 0.03, INL: 0.05, F3dBMHz: 75},
		{Bits: 8, Method: Burcea, CTSfF: 0.09, CWirefF: 12.7, CBBfF: 29.8, NV: 295, LUm: 1884, RVkOhm: 4.1, RTotalkOhm: 10.0,
			AreaUm2: 819, DNL: 0.01, INL: 0.02, F3dBMHz: 23},
		{Bits: 8, Method: Spiral, CTSfF: 0.09, CWirefF: 3.0, CBBfF: 1.7, NV: 75, LUm: 256, RVkOhm: 0.002, RTotalkOhm: 0.06,
			AreaUm2: 806, DNL: 0.06, INL: 0.03, F3dBMHz: 3962},
		{Bits: 8, Method: BC, CTSfF: 0.09, CWirefF: 4.0, CBBfF: 2.0, NV: 86, LUm: 335, RVkOhm: 0.03, RTotalkOhm: 0.51,
			AreaUm2: 819, DNL: 0.02, INL: 0.03, F3dBMHz: 908},
		// 9-bit ([1] present in the paper's tables)
		{Bits: 9, Method: Lin, CTSfF: 0.14, CWirefF: 8.5, CBBfF: 61.0, NV: 143, LUm: 703, RVkOhm: 1.2, RTotalkOhm: 4.2,
			AreaUm2: 1655, DNL: 0.08, INL: 0.11, F3dBMHz: 25},
		{Bits: 9, Method: Burcea, CTSfF: 0.36, CWirefF: 59.6, CBBfF: 242.7, NV: 1126, LUm: 9076, RVkOhm: 15.8, RTotalkOhm: 39.7,
			AreaUm2: 3521, DNL: 0.02, INL: 0.04, F3dBMHz: 1.3},
		{Bits: 9, Method: Spiral, CTSfF: 0.17, CWirefF: 5.4, CBBfF: 3.4, NV: 78, LUm: 453, RVkOhm: 0.002, RTotalkOhm: 0.10,
			AreaUm2: 1669, DNL: 0.06, INL: 0.07, F3dBMHz: 1072},
		{Bits: 9, Method: BC, CTSfF: 0.17, CWirefF: 5.5, CBBfF: 7.6, NV: 92, LUm: 463, RVkOhm: 0.03, RTotalkOhm: 0.57,
			AreaUm2: 1643, DNL: 0.04, INL: 0.07, F3dBMHz: 714},
		// 10-bit ([1] absent)
		{Bits: 10, Method: Burcea, CTSfF: 0.36, CWirefF: 59.9, CBBfF: 242.7, NV: 1126, LUm: 9126, RVkOhm: 15.8, RTotalkOhm: 39.7,
			AreaUm2: 3521, DNL: 0.05, INL: 0.09, F3dBMHz: 1.2},
		{Bits: 10, Method: Spiral, CTSfF: 0.32, CWirefF: 9.7, CBBfF: 5.1, NV: 107, LUm: 816, RVkOhm: 0.002, RTotalkOhm: 0.16,
			AreaUm2: 3235, DNL: 0.25, INL: 0.16, F3dBMHz: 286},
		{Bits: 10, Method: BC, CTSfF: 0.33, CWirefF: 12.6, CBBfF: 21.5, NV: 177, LUm: 1050, RVkOhm: 0.03, RTotalkOhm: 1.03,
			AreaUm2: 3296, DNL: 0.11, INL: 0.11, F3dBMHz: 91},
	}
}

// Find returns the paper cell for (bits, method), if present.
func Find(bits int, method string) (Cell, bool) {
	for _, c := range Cells() {
		if c.Bits == bits && c.Method == method {
			return c, true
		}
	}
	return Cell{}, false
}

// Spearman computes the Spearman rank correlation between two paired
// samples, with average ranks for ties. It returns NaN for fewer than
// 3 pairs or zero variance.
func Spearman(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 3 {
		return math.NaN()
	}
	ra := ranks(a)
	rb := ranks(b)
	return pearson(ra, rb)
}

func ranks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return v[idx[i]] < v[idx[j]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && v[idx[j+1]] == v[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(va*vb)
}

// MetricName identifies a comparable metric column.
type MetricName string

// The comparable metric columns of Tables I and II.
const (
	MetricCTS    MetricName = "CTS"
	MetricCWire  MetricName = "Cwire"
	MetricCBB    MetricName = "CBB"
	MetricNV     MetricName = "NV"
	MetricL      MetricName = "L"
	MetricRV     MetricName = "RV"
	MetricRTotal MetricName = "Rtotal"
	MetricArea   MetricName = "Area"
	MetricDNL    MetricName = "DNL"
	MetricINL    MetricName = "INL"
	MetricF3dB   MetricName = "f3dB"
)

// Metrics lists the comparable columns in table order.
func Metrics() []MetricName {
	return []MetricName{
		MetricCTS, MetricCWire, MetricCBB, MetricNV, MetricL,
		MetricRV, MetricRTotal, MetricArea, MetricDNL, MetricINL, MetricF3dB,
	}
}

// Value extracts a metric from a cell.
func (c Cell) Value(m MetricName) float64 {
	switch m {
	case MetricCTS:
		return c.CTSfF
	case MetricCWire:
		return c.CWirefF
	case MetricCBB:
		return c.CBBfF
	case MetricNV:
		return c.NV
	case MetricL:
		return c.LUm
	case MetricRV:
		return c.RVkOhm
	case MetricRTotal:
		return c.RTotalkOhm
	case MetricArea:
		return c.AreaUm2
	case MetricDNL:
		return c.DNL
	case MetricINL:
		return c.INL
	case MetricF3dB:
		return c.F3dBMHz
	}
	panic(fmt.Sprintf("paperdata: unknown metric %q", m))
}

// Correlation is one metric's shape-agreement summary.
type Correlation struct {
	Metric MetricName
	// Rho is the Spearman rank correlation between paper and measured
	// values across all shared cells.
	Rho float64
	// N is the number of shared cells.
	N int
}

// Compare computes per-metric Spearman correlations between the paper
// cells and measured cells keyed by (bits, method). Measured cells
// missing from the map are skipped.
func Compare(measured map[string]Cell) []Correlation {
	var out []Correlation
	for _, m := range Metrics() {
		var a, b []float64
		for _, pc := range Cells() {
			mc, ok := measured[Key(pc.Bits, pc.Method)]
			if !ok {
				continue
			}
			a = append(a, pc.Value(m))
			b = append(b, mc.Value(m))
		}
		out = append(out, Correlation{Metric: m, Rho: Spearman(a, b), N: len(a)})
	}
	return out
}

// Key builds the measured-map key for (bits, method).
func Key(bits int, method string) string { return fmt.Sprintf("%d/%s", bits, method) }
