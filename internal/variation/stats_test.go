package variation_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"ccdac/internal/dacmodel"
	"ccdac/internal/par"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

// TestExactSamplerMatchesOracle is the statistical check of the exact
// capacitor-level sampler against the unit-level oracle, on every
// layout of variation.SamplerCases. The two draw from independent
// seeds. The yield at a spec set to the oracle's median worst
// endpoint INL/DNL must agree within 95% Wilson intervals, and the
// two-sample KS statistic of every capacitor's ratio error — the part
// of ΔC_k the DAC reads, ΔC_k − (n_k/n_T)·ΔC_T — must stay under its
// α = 0.001 critical value. Under the race detector only the layouts
// up to 8 bits run.
func TestExactSamplerMatchesOracle(t *testing.T) {
	tch := tech.FinFET12()
	ctx := par.WithWorkers(context.Background(), 2)
	for _, c := range variation.SamplerCases(t, tch) {
		t.Run(c.Name, func(t *testing.T) {
			if variation.RaceEnabled && c.M.Bits >= 9 {
				t.Skip("the unit-level oracle runs ~15x slower under the race detector; the plain run covers 9 and 10 bits")
			}
			samples := 2000
			if c.M.Bits >= 10 {
				samples = 1000
			}
			sh, err := variation.NewSharedContext(ctx, c.M, c.Pos, tch)
			if err != nil {
				t.Fatal(err)
			}
			a := sh.Analysis(math.Pi / 4)
			exact, err := sh.MonteCarloRangeContext(variation.WithFFTMode(ctx, variation.FFTOff), a, 0, samples, 101)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := variation.OracleMonteCarloRange(ctx, c.M, c.Pos, tch, a, 0, samples, 202)
			if err != nil {
				t.Fatal(err)
			}
			worstOf := func(shifts [][]float64) []float64 {
				nls, err := dacmodel.MonteCarloNLEndpoint(a, shifts, dacmodel.Parasitics{}, tch.VRef)
				if err != nil {
					t.Fatal(err)
				}
				w := make([]float64, len(nls))
				for i, nl := range nls {
					w[i] = math.Max(nl.MaxAbsDNL, nl.MaxAbsINL)
				}
				return w
			}
			we, wo := worstOf(exact), worstOf(oracle)
			spec := median(wo)
			ye, yo := passTally(we, spec).Result(), passTally(wo, spec).Result()
			if ye.CIHigh < yo.CILow || yo.CIHigh < ye.CILow {
				t.Errorf("yield at spec %.3g: exact %.3f [%.3f, %.3f], oracle %.3f [%.3f, %.3f] — Wilson intervals disjoint",
					spec, ye.Yield, ye.CILow, ye.CIHigh, yo.Yield, yo.CILow, yo.CIHigh)
			}
			// Two-sample KS critical value at α = 0.001:
			// sqrt(-ln(α/2)/2)·sqrt((n+m)/(n·m)), n = m.
			crit := math.Sqrt(-math.Log(0.001/2)/2) * math.Sqrt(2/float64(samples))
			worstD := 0.0
			for k := range a.Counts {
				d := ksStatistic(ratioErrors(a, exact, k), ratioErrors(a, oracle, k))
				if d > crit {
					t.Errorf("capacitor %d ratio error: KS D = %.4f > critical %.4f", k, d, crit)
				}
				worstD = math.Max(worstD, d)
			}
			t.Logf("yield exact %.3f oracle %.3f; worst KS D %.4f (critical %.4f)", ye.Yield, yo.Yield, worstD, crit)
		})
	}
}

// passTally counts the samples whose worst nonlinearity meets spec.
func passTally(worst []float64, spec float64) yield.Tally {
	ty := yield.Tally{Samples: len(worst)}
	for _, w := range worst {
		if w <= spec {
			ty.Passed++
		}
	}
	return ty
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// ratioErrors returns capacitor k's ratio error ΔC_k − (n_k/n_T)·ΔC_T
// per sample.
func ratioErrors(a *variation.Analysis, shifts [][]float64, k int) []float64 {
	nT := 0
	for _, n := range a.Counts {
		nT += n
	}
	w := float64(a.Counts[k]) / float64(nT)
	out := make([]float64, len(shifts))
	for i, s := range shifts {
		total := 0.0
		for _, v := range s {
			total += v
		}
		out[i] = s[k] - w*total
	}
	return out
}

// ksStatistic is the two-sample Kolmogorov–Smirnov statistic: the
// largest gap between the two empirical CDFs.
func ksStatistic(x, y []float64) float64 {
	x = append([]float64(nil), x...)
	y = append([]float64(nil), y...)
	sort.Float64s(x)
	sort.Float64s(y)
	d := 0.0
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		v := math.Min(x[i], y[j])
		for i < len(x) && x[i] <= v {
			i++
		}
		for j < len(y) && y[j] <= v {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(x))-float64(j)/float64(len(y))))
	}
	return d
}
