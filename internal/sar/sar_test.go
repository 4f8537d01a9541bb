package sar

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

func idealADC(t *testing.T, bits int) *ADC {
	t.Helper()
	a, err := NewIdeal(bits, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func analysisFor(t *testing.T, bits int, style place.Style) *variation.Analysis {
	t.Helper()
	var m *ccmatrix.Matrix
	var err error
	switch style {
	case place.Chessboard:
		m, err = place.NewChessboard(bits)
	default:
		m, err = place.NewSpiral(bits)
	}
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	sh, err := variation.NewSharedContext(context.Background(), m, variation.GridPositioner(tch), tch)
	if err != nil {
		t.Fatal(err)
	}
	return sh.Analysis(math.Pi / 4)
}

func TestIdealDACLevels(t *testing.T) {
	a := idealADC(t, 6)
	if got := a.DACOut(0); got != 0 {
		t.Errorf("DACOut(0) = %g", got)
	}
	if got := a.DACOut(32); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("DACOut(32) = %g, want 0.5", got)
	}
	if got := a.DACOut(63); math.Abs(got-63.0/64) > 1e-12 {
		t.Errorf("DACOut(63) = %g", got)
	}
}

func TestIdealConversionExact(t *testing.T) {
	a := idealADC(t, 8)
	lsb := 1.0 / 256
	for _, code := range []int{0, 1, 127, 128, 200, 255} {
		vin := (float64(code) + 0.5) * lsb
		if got := a.Convert(vin); got != code {
			t.Errorf("Convert(mid of %d) = %d", code, got)
		}
	}
	// Below the first transition: code 0; at full scale: max code.
	if got := a.Convert(0); got != 0 {
		t.Errorf("Convert(0) = %d", got)
	}
	if got := a.Convert(1.0); got != 255 {
		t.Errorf("Convert(VREF) = %d", got)
	}
}

func TestConversionMonotoneIdeal(t *testing.T) {
	a := idealADC(t, 6)
	prev := -1
	for i := 0; i <= 1000; i++ {
		code := a.Convert(float64(i) / 1000)
		if code < prev {
			t.Fatalf("non-monotone conversion at vin=%g: %d < %d", float64(i)/1000, code, prev)
		}
		prev = code
	}
}

func TestTransitionLevelsCount(t *testing.T) {
	a := idealADC(t, 6)
	levels := a.TransitionLevels()
	if len(levels) != 63 {
		t.Fatalf("levels = %d, want 63", len(levels))
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("transition levels not increasing at %d", i)
		}
	}
}

func TestStaticNLIdealZero(t *testing.T) {
	a := idealADC(t, 8)
	dnl, inl := a.StaticNL()
	if dnl > 1e-9 || inl > 1e-9 {
		t.Errorf("ideal ADC has DNL %g INL %g", dnl, inl)
	}
}

func TestStaticNLWithMismatch(t *testing.T) {
	an := analysisFor(t, 8, place.Spiral)
	a, err := New(an, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dnl, inl := a.StaticNL()
	// Systematic-only mismatch: tiny but nonzero.
	if dnl <= 0 || inl <= 0 {
		t.Error("mismatched ADC reports zero nonlinearity")
	}
	if dnl > 0.5 || inl > 0.5 {
		t.Errorf("systematic-only NL implausibly large: %g/%g", dnl, inl)
	}
}

func TestIdealENOBNearResolution(t *testing.T) {
	for _, bits := range []int{6, 8} {
		a := idealADC(t, bits)
		enob := ENOB(a.SNDR(8192))
		if math.Abs(enob-float64(bits)) > 0.2 {
			t.Errorf("%d-bit ideal ENOB = %.2f", bits, enob)
		}
	}
}

func TestMismatchDegradesENOB(t *testing.T) {
	an := analysisFor(t, 8, place.Spiral)
	ideal := idealADC(t, 8)
	// Spiral systematic shifts cancel to ~ppm; inject a synthetic 1%
	// alternating-sign mismatch to make the effect visible above the
	// quantization floor.
	shifts := make([]float64, 9)
	for k := range shifts {
		sign := 1.0
		if k%2 == 0 {
			sign = -1
		}
		shifts[k] = sign * 0.01 * float64(an.Counts[k]) * an.CuFF
	}
	bad, err := NewFromShifts(an, shifts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1, e2 := ENOB(ideal.SNDR(4096)), ENOB(bad.SNDR(4096)); e2 >= e1 {
		t.Errorf("mismatch did not degrade ENOB: %g vs %g", e1, e2)
	}
}

func TestCTSGainErrorShiftsLevels(t *testing.T) {
	an := analysisFor(t, 6, place.Spiral)
	clean, err := New(an, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := New(an, 30, 1) // 30 fF on a 320 fF array
	if err != nil {
		t.Fatal(err)
	}
	// The gain error compresses all DAC levels.
	if dirty.DACOut(32) >= clean.DACOut(32) {
		t.Error("C_TS did not reduce DAC levels")
	}
}

func TestBuildRejectsBadInputs(t *testing.T) {
	if _, err := NewIdeal(1, 5, 1); err == nil {
		t.Error("1-bit ADC must be rejected")
	}
	if _, err := NewIdeal(6, 5, 0); err == nil {
		t.Error("zero vref must be rejected")
	}
	an := analysisFor(t, 6, place.Spiral)
	if _, err := NewFromShifts(an, []float64{1}, 0, 1); err == nil {
		t.Error("wrong shift count must be rejected")
	}
	// Negative capacitor after shift.
	shifts := make([]float64, 7)
	shifts[0] = -1000
	if _, err := NewFromShifts(an, shifts, 0, 1); err == nil {
		t.Error("negative capacitor must be rejected")
	}
}

func TestMaxSampleRate(t *testing.T) {
	// tau = 10 ps, 8 bits: one conversion = 8 * 10ln2 * 10ps.
	got := MaxSampleRateHz(8, 1e-11)
	want := 1 / (8 * 10 * math.Ln2 * 1e-11)
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("rate = %g, want %g", got, want)
	}
	if !math.IsInf(MaxSampleRateHz(8, 0), 1) {
		t.Error("zero tau must give infinite rate")
	}
	// Rate falls with resolution at fixed tau.
	if MaxSampleRateHz(10, 1e-11) >= MaxSampleRateHz(6, 1e-11) {
		t.Error("rate must fall with resolution")
	}
}

func TestENOBFormula(t *testing.T) {
	// 6.02*N + 1.76 dB -> N bits.
	if got := ENOB(6.02*8 + 1.76); math.Abs(got-8) > 1e-12 {
		t.Errorf("ENOB = %g, want 8", got)
	}
}

func TestConversionConsistentWithTransitionLevels(t *testing.T) {
	// Property: Convert(v) returns the number of transition levels at
	// or below v, for any mismatch realization.
	an := analysisFor(t, 6, place.Spiral)
	rng := func(k int) float64 { return float64((k*2654435761)%1000)/1000*0.04 - 0.02 }
	shifts := make([]float64, 7)
	for k := range shifts {
		shifts[k] = rng(k) * float64(an.Counts[k]) * an.CuFF
	}
	a, err := NewFromShifts(an, shifts, 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	levels := a.TransitionLevels()
	for i := 0; i <= 200; i++ {
		vin := float64(i) / 200
		want := 0
		for _, l := range levels {
			if l <= vin {
				want++
			}
		}
		if got := a.Convert(vin); got != want {
			t.Fatalf("Convert(%g) = %d, want %d (levels)", vin, got, want)
		}
	}
}

func TestConversionMonotoneUnderMismatch(t *testing.T) {
	// Binary-weighted SAR with positive capacitors: the DAC levels are
	// increasing in code only if mismatch is small; with our ppm-level
	// systematic shifts the transfer must remain monotone.
	an := analysisFor(t, 8, place.Chessboard)
	a, err := New(an, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i := 0; i <= 2000; i++ {
		code := a.Convert(float64(i) / 2000)
		if code < prev {
			t.Fatalf("non-monotone at %d/2000: %d < %d", i, code, prev)
		}
		prev = code
	}
}
