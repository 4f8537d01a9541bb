package sweep

import (
	"math"
	"testing"

	"ccdac/internal/core"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

func TestScaledTechKnobs(t *testing.T) {
	base := tech.FinFET12()
	for _, knob := range Knobs() {
		scaled, err := ScaledTech(base, knob, 2)
		if err != nil {
			t.Fatalf("%s: %v", knob, err)
		}
		if scaled == base {
			t.Fatalf("%s: no copy made", knob)
		}
	}
	via, _ := ScaledTech(base, KnobViaR, 3)
	if via.ViaROhm != 3*base.ViaROhm {
		t.Error("via knob did not scale")
	}
	if via.Layers[0].ROhmPerUm != base.Layers[0].ROhmPerUm {
		t.Error("via knob leaked into wire resistance")
	}
	wire, _ := ScaledTech(base, KnobWireR, 2)
	if wire.Layers[0].ROhmPerUm != 2*base.Layers[0].ROhmPerUm {
		t.Error("wire knob did not scale")
	}
	if base.Layers[0].ROhmPerUm == wire.Layers[0].ROhmPerUm {
		t.Error("scaling mutated the base technology")
	}
}

func TestScaledTechRejectsBadInputs(t *testing.T) {
	base := tech.FinFET12()
	if _, err := ScaledTech(base, KnobViaR, 0); err == nil {
		t.Error("zero factor must be rejected")
	}
	if _, err := ScaledTech(base, Knob("bogus"), 2); err == nil {
		t.Error("unknown knob must be rejected")
	}
}

func TestSensitivityViaRHurtsF3dB(t *testing.T) {
	pts, err := Sensitivity(core.Config{Bits: 6, Style: place.Chessboard},
		KnobViaR, []float64{0.5, 1, 2, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].F3dBHz >= pts[i-1].F3dBHz {
			t.Errorf("f3dB not decreasing with via R: %+v", pts)
		}
	}
}

func TestSensitivityGradientScalesINL(t *testing.T) {
	pts, err := Sensitivity(core.Config{Bits: 6, Style: place.Chessboard, ThetaSteps: 4},
		KnobGradient, []float64{1, 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].INL <= pts[0].INL {
		t.Errorf("10x gradient did not raise INL: %+v", pts)
	}
}

func TestSensitivityCorrelationLengthImprovesMatching(t *testing.T) {
	// Longer L_c means unit caps track better: INL falls.
	pts, err := Sensitivity(core.Config{Bits: 6, Style: place.Spiral, ThetaSteps: 4},
		KnobCorrLen, []float64{0.1, 1, 10}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].INL > pts[1].INL && pts[1].INL > pts[2].INL) {
		t.Errorf("INL not falling with correlation length: %+v", pts)
	}
}

func TestSensitivitySwitchRBoundsF3dB(t *testing.T) {
	pts, err := Sensitivity(core.Config{Bits: 6, Style: place.Spiral, MaxParallel: 4},
		KnobSwitchR, []float64{1, 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].F3dBHz >= pts[0].F3dBHz {
		t.Errorf("switch resistance did not bound f3dB: %+v", pts)
	}
}

func TestViaRStudy(t *testing.T) {
	// The paper's FinFET motivation: parallel routing (p² via arrays)
	// grows more valuable as vias get more resistive, and keeps the
	// spiral's advantage where the single-wire flow loses it.
	s, err := StudyViaR(6, []float64{0.25, 1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.ParallelGain); i++ {
		if s.ParallelGain[i] <= s.ParallelGain[i-1] {
			t.Errorf("parallel gain not growing with via R: %v", s.ParallelGain)
		}
	}
	for i := range s.Factors {
		if s.GapParallel[i] <= s.GapSingle[i] {
			t.Errorf("factor %g: parallel gap %g not above single-wire gap %g",
				s.Factors[i], s.GapParallel[i], s.GapSingle[i])
		}
		if s.GapParallel[i] <= 1 {
			t.Errorf("factor %g: parallel-routed spiral must beat chessboard", s.Factors[i])
		}
	}
}

func TestBCAblationSpansTradeoff(t *testing.T) {
	pts, err := BCAblation(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("only %d BC structures", len(pts))
	}
	// The ablation must expose a real spread in both dimensions.
	minF, maxF := math.Inf(1), 0.0
	minV, maxV := math.MaxInt32, 0
	for _, p := range pts {
		minF = math.Min(minF, p.F3dBHz)
		maxF = math.Max(maxF, p.F3dBHz)
		if p.ViaCuts < minV {
			minV = p.ViaCuts
		}
		if p.ViaCuts > maxV {
			maxV = p.ViaCuts
		}
		if p.DNL <= 0 || p.INL <= 0 || p.AreaUm2 <= 0 {
			t.Errorf("degenerate ablation point %+v", p)
		}
	}
	if maxF < 1.2*minF {
		t.Errorf("f3dB spread too small: %g..%g", minF, maxF)
	}
	if maxV < minV+10 {
		t.Errorf("via spread too small: %d..%d", minV, maxV)
	}
}

func TestCoarserBlocksUseFewerVias(t *testing.T) {
	pts, err := BCAblation(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	byGran := map[int]int{} // block cells -> via cuts (core 4 only)
	for _, p := range pts {
		if p.CoreBits == 4 {
			byGran[p.BlockCells] = p.ViaCuts
		}
	}
	if !(byGran[8] < byGran[1]) {
		t.Errorf("8-cell blocks (%d vias) not below 1-cell blocks (%d vias)",
			byGran[8], byGran[1])
	}
}

func TestNodeContrastBulkVsFinFET(t *testing.T) {
	// The paper's premise: the techniques target FinFET nodes because
	// routing resistance dominates there. In the bulk node, wires and
	// vias are cheap, so (1) absolute switching speed is higher despite
	// the larger cells, and (2) parallel-wire routing — the paper's
	// FinFET-specific remedy — buys much less.
	gain := func(tt *tech.Technology) (p1Hz, ratio float64) {
		p2, err := core.Run(core.Config{Bits: 8, Style: place.Spiral, Tech: tt, SkipNL: true, MaxParallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		p1, err := core.Run(core.Config{Bits: 8, Style: place.Spiral, Tech: tt, SkipNL: true})
		if err != nil {
			t.Fatal(err)
		}
		return p1.F3dBHz, p2.F3dBHz / p1.F3dBHz
	}
	finF, finGain := gain(tech.FinFET12())
	bulkF, bulkGain := gain(tech.Bulk65())
	if bulkGain >= finGain {
		t.Errorf("parallel routing gain in bulk (%.2fx) not below FinFET (%.2fx)", bulkGain, finGain)
	}
	if bulkF <= finF {
		t.Errorf("single-wire bulk f3dB %g not above FinFET %g (cheap wires)", bulkF, finF)
	}
}

func TestUnitCapKnobTradesINLForSpeed(t *testing.T) {
	// The paper's C_u tradeoff: a 4x unit capacitor improves matching
	// (sigma_u/C_u falls as 1/sqrt(C_u)) but slows switching (more load,
	// longer wires) and quadruples area.
	pts, err := Sensitivity(core.Config{Bits: 6, Style: place.Spiral, ThetaSteps: 4},
		KnobUnitCap, []float64{1, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].INL >= pts[0].INL {
		t.Errorf("4x C_u did not improve INL: %+v", pts)
	}
	if pts[1].F3dBHz >= pts[0].F3dBHz {
		t.Errorf("4x C_u did not slow switching: %+v", pts)
	}
}
