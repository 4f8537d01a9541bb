// Package sar builds the paper's motivating application on top of the
// capacitor-array flow: a behavioral charge-redistribution SAR ADC
// whose binary-weighted DAC uses the (mismatched, parasitic-laden)
// capacitor values of a generated layout. It converts analog inputs by
// successive approximation, measures static transfer metrics, and
// estimates dynamic performance (SNDR/ENOB from full-scale sine
// quantization) and the maximum sample rate permitted by the array's
// settling time — connecting the paper's f3dB and INL/DNL metrics to
// the system-level numbers an ADC designer quotes.
package sar

import (
	"fmt"
	"math"

	"ccdac/internal/extract"
	"ccdac/internal/variation"
)

// ADC is a behavioral N-bit charge-redistribution SAR ADC.
type ADC struct {
	// Bits is the resolution N.
	Bits int
	// CapsFF holds the actual capacitor values C_0..C_N in fF
	// (including mismatch); C_0 is the always-grounded terminator.
	CapsFF []float64
	// CTSfF is the top-plate parasitic to ground (gain error).
	CTSfF float64
	// VRef is the reference voltage.
	VRef float64
}

// New builds an ADC from a variation analysis: capacitor values are
// the gradient-shifted C_k* (systematic mismatch). Use NewFromShifts
// for Monte-Carlo samples.
func New(a *variation.Analysis, ctsFF, vref float64) (*ADC, error) {
	caps := make([]float64, a.Bits+1)
	for k := 0; k <= a.Bits; k++ {
		caps[k] = a.CStar[k]
	}
	return build(a.Bits, caps, ctsFF, vref)
}

// NewFromShifts builds an ADC whose capacitors are the nominal values
// plus the per-capacitor shifts (fF), e.g. one sample of
// variation.Shared.MonteCarloRangeContext.
func NewFromShifts(a *variation.Analysis, shifts []float64, ctsFF, vref float64) (*ADC, error) {
	if len(shifts) != a.Bits+1 {
		return nil, fmt.Errorf("sar: %d shifts for %d capacitors", len(shifts), a.Bits+1)
	}
	caps := make([]float64, a.Bits+1)
	for k := 0; k <= a.Bits; k++ {
		caps[k] = float64(a.Counts[k])*a.CuFF + shifts[k]
	}
	return build(a.Bits, caps, ctsFF, vref)
}

// NewIdeal builds a mismatch-free ADC for reference measurements.
func NewIdeal(bits int, cuFF, vref float64) (*ADC, error) {
	caps := make([]float64, bits+1)
	caps[0], caps[1] = cuFF, cuFF
	for k := 2; k <= bits; k++ {
		caps[k] = float64(int(1)<<(k-1)) * cuFF
	}
	return build(bits, caps, 0, vref)
}

func build(bits int, caps []float64, ctsFF, vref float64) (*ADC, error) {
	if bits < 2 {
		return nil, fmt.Errorf("sar: need at least 2 bits, got %d", bits)
	}
	if vref <= 0 {
		return nil, fmt.Errorf("sar: vref must be positive")
	}
	for k, c := range caps {
		if c <= 0 {
			return nil, fmt.Errorf("sar: capacitor %d non-positive (%g fF)", k, c)
		}
	}
	return &ADC{Bits: bits, CapsFF: caps, CTSfF: ctsFF, VRef: vref}, nil
}

// DACOut returns the DAC output voltage for a digital code, including
// mismatch and the C^TS gain error.
func (a *ADC) DACOut(code int) float64 {
	cT := a.CTSfF
	for _, c := range a.CapsFF {
		cT += c
	}
	on := 0.0
	for k := 1; k <= a.Bits; k++ {
		if code&(1<<(k-1)) != 0 {
			on += a.CapsFF[k]
		}
	}
	return a.VRef * on / cT
}

// Convert runs the successive-approximation loop on an input voltage
// and returns the output code. The comparator is ideal; the DAC is the
// mismatched array.
func (a *ADC) Convert(vin float64) int {
	code := 0
	for k := a.Bits; k >= 1; k-- {
		trial := code | 1<<(k-1)
		if a.DACOut(trial) <= vin {
			code = trial
		}
	}
	return code
}

// TransitionLevels returns the 2^N - 1 input voltages at which the
// output code increments, computed from the DAC levels (an ideal
// comparator switches exactly at the DAC output of the next code).
func (a *ADC) TransitionLevels() []float64 {
	n := 1 << a.Bits
	out := make([]float64, n-1)
	for i := 1; i < n; i++ {
		out[i-1] = a.DACOut(i)
	}
	return out
}

// StaticNL computes the ADC's static INL and DNL (in LSB) from its
// transition levels, the ADC-side counterpart of the paper's DAC
// metrics.
func (a *ADC) StaticNL() (maxAbsDNL, maxAbsINL float64) {
	levels := a.TransitionLevels()
	lsb := a.VRef / float64(int(1)<<a.Bits)
	for i, v := range levels {
		ideal := float64(i+1) * lsb
		inl := (v - ideal) / lsb
		if m := math.Abs(inl); m > maxAbsINL {
			maxAbsINL = m
		}
		if i > 0 {
			dnl := (v-levels[i-1])/lsb - 1
			if m := math.Abs(dnl); m > maxAbsDNL {
				maxAbsDNL = m
			}
		}
	}
	return maxAbsDNL, maxAbsINL
}

// SNDR quantizes a full-scale sine through the converter and returns
// the signal-to-noise-and-distortion ratio in dB. samples should be a
// few thousand for a stable estimate.
func (a *ADC) SNDR(samples int) float64 {
	if samples < 16 {
		samples = 16
	}
	lsb := a.VRef / float64(int(1)<<a.Bits)
	amp := (a.VRef - lsb) / 2
	mid := a.VRef / 2
	sigPow, errPow := 0.0, 0.0
	// Incommensurate frequency avoids sampling the same phases.
	const cycles = 37.0
	for i := 0; i < samples; i++ {
		phase := 2 * math.Pi * cycles * float64(i) / float64(samples)
		vin := mid + amp*math.Sin(phase)
		code := a.Convert(vin)
		vout := (float64(code) + 0.5) * lsb
		sig := vin - mid
		sigPow += sig * sig
		e := vout - vin
		errPow += e * e
	}
	if errPow == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sigPow/errPow)
}

// ENOB converts an SNDR in dB to effective bits.
func ENOB(sndrDB float64) float64 { return (sndrDB - 1.76) / 6.02 }

// MaxSampleRateHz estimates the SAR conversion rate the array allows:
// each of the N bit trials must settle to 1/4 LSB (Eq. 15), so one
// conversion takes N·t_settle.
func MaxSampleRateHz(bits int, tauSec float64) float64 {
	if tauSec <= 0 {
		return math.Inf(1)
	}
	return 1 / (float64(bits) * extract.SettlingTime(bits, tauSec))
}
