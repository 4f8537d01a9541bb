package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"ccdac"
)

// refRel is the relative tolerance for floats compared with the
// reference: the covariance engines agree to ~1e-12, not bitwise.
const refRel = 1e-9

// genSpec is one generate configuration a workload may issue.
type genSpec struct {
	Bits        int
	Style       ccdac.Style
	MaxParallel int
	Theta       int
}

func (g genSpec) key() string {
	return fmt.Sprintf("%s/t%d", g.arrayKey(), g.Theta)
}

// arrayKey names the routed array g analyzes; only NL depends on the
// theta steps.
func (g genSpec) arrayKey() string {
	return fmt.Sprintf("%d/%s/p%d", g.Bits, g.Style, g.MaxParallel)
}

// config is the library configuration of g; the default structure is
// used for block-chessboard.
func (g genSpec) config(workers int) ccdac.Config {
	return ccdac.Config{Bits: g.Bits, Style: g.Style, MaxParallel: g.MaxParallel, ThetaSteps: g.Theta, Workers: workers}
}

// refYield is a reference Monte-Carlo yield estimate with its 95%
// Wilson interval.
type refYield struct {
	Samples int     `json:"samples"`
	Passed  int     `json:"passed"`
	Yield   float64 `json:"yield"`
	CILow   float64 `json:"ci_low"`
	CIHigh  float64 `json:"ci_high"`
}

// refArray is the reference for one routed array: its metrics apart
// from NL, and [MaxAbsDNL, MaxAbsINL] per theta-step count.
type refArray struct {
	Metrics ccdac.Metrics      `json:"metrics"`
	NL      map[int][2]float64 `json:"nl"`
}

// reference is the committed output every workload checks against.
type reference struct {
	Generate map[string]*refArray `json:"generate"`
	Yield    map[string]refYield  `json:"yield"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var r reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	return &r, nil
}

// checkGenerate compares one generate result with the reference.
func (r *reference) checkGenerate(g genSpec, got ccdac.Metrics) error {
	arr, ok := r.Generate[g.arrayKey()]
	nl, okNL := [2]float64{}, false
	if ok {
		nl, okNL = arr.NL[g.Theta]
	}
	if !okNL {
		return fmt.Errorf("%s: no reference entry", g.key())
	}
	want := arr.Metrics
	want.MaxAbsDNL, want.MaxAbsINL = nl[0], nl[1]
	if err := diffMetrics(want, got, refRel); err != nil {
		return fmt.Errorf("%s vs reference: %w", g.key(), err)
	}
	return nil
}

// diffMetrics reports the first disagreement between two results:
// floats within rel, integer outputs exactly. Runtimes are ignored.
func diffMetrics(want, got ccdac.Metrics, rel float64) error {
	if want.CriticalBit != got.CriticalBit {
		return fmt.Errorf("CriticalBit %d, want %d", got.CriticalBit, want.CriticalBit)
	}
	if want.ViaCuts != got.ViaCuts {
		return fmt.Errorf("ViaCuts %d, want %d", got.ViaCuts, want.ViaCuts)
	}
	if fmt.Sprint(want.ParallelWires) != fmt.Sprint(got.ParallelWires) {
		return fmt.Errorf("ParallelWires %v, want %v", got.ParallelWires, want.ParallelWires)
	}
	floats := []struct {
		name      string
		want, got float64
	}{
		{"AreaUm2", want.AreaUm2, got.AreaUm2},
		{"F3dBHz", want.F3dBHz, got.F3dBHz},
		{"TauSec", want.TauSec, got.TauSec},
		{"MaxAbsDNL", want.MaxAbsDNL, got.MaxAbsDNL},
		{"MaxAbsINL", want.MaxAbsINL, got.MaxAbsINL},
		{"CTSfF", want.CTSfF, got.CTSfF},
		{"CWirefF", want.CWirefF, got.CWirefF},
		{"CBBfF", want.CBBfF, got.CBBfF},
		{"WirelengthUm", want.WirelengthUm, got.WirelengthUm},
		{"RVkOhm", want.RVkOhm, got.RVkOhm},
		{"RTotalkOhm", want.RTotalkOhm, got.RTotalkOhm},
	}
	for _, f := range floats {
		if !relClose(f.want, f.got, rel) {
			return fmt.Errorf("%s %.17g, want %.17g", f.name, f.got, f.want)
		}
	}
	return nil
}

// checkYield requires an estimate's sample count to match the
// reference and its yield to fall inside the reference's 95% Wilson
// interval.
func (r *reference) checkYield(name string, samples int, y float64) error {
	want, ok := r.Yield[name]
	if !ok {
		return fmt.Errorf("mc %s: no reference entry", name)
	}
	if samples != want.Samples {
		return fmt.Errorf("mc %s: %d samples, want %d", name, samples, want.Samples)
	}
	if y < want.CILow || y > want.CIHigh {
		return fmt.Errorf("mc %s: yield %.4f outside reference interval [%.4f, %.4f]", name, y, want.CILow, want.CIHigh)
	}
	return nil
}

// writeReference recomputes every output any workload can produce and
// writes it to path.
func writeReference(path string) error {
	r := reference{Generate: map[string]*refArray{}, Yield: map[string]refYield{}}
	for _, g := range append(flowSpecs(), servePool()...) {
		res, err := ccdac.Generate(g.config(0))
		if err != nil {
			return fmt.Errorf("%s: %w", g.key(), err)
		}
		m := res.Metrics
		nl := [2]float64{m.MaxAbsDNL, m.MaxAbsINL}
		m.PlaceSeconds, m.RouteSeconds, m.MaxAbsDNL, m.MaxAbsINL = 0, 0, 0, 0
		arr := r.Generate[g.arrayKey()]
		if arr == nil {
			arr = &refArray{Metrics: m, NL: map[int][2]float64{}}
			r.Generate[g.arrayKey()] = arr
		} else if err := diffMetrics(arr.Metrics, m, 0); err != nil {
			return fmt.Errorf("%s: array metrics depend on theta steps: %w", g.key(), err)
		}
		arr.NL[g.Theta] = nl
	}
	lay, err := buildMCLayouts(context.Background())
	if err != nil {
		return err
	}
	for i, c := range mcCases {
		y, err := lay[i].estimate(context.Background(), c)
		if err != nil {
			return fmt.Errorf("mc %s: %w", c.name, err)
		}
		r.Yield[c.name] = refYield{Samples: y.Samples, Passed: y.Passed, Yield: y.Yield, CILow: y.CILow, CIHigh: y.CIHigh}
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
