package dacmodel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ccdac/internal/linalg"
	parpkg "ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// The reference implementations below rebuild every code's sums bit
// by bit from its switch states, folding them in the ascending order
// the kernels' code-sum tables fold them. refNonlinearity evaluates
// the 3σ analysis code by code through the same formulas the σ tables
// and the systematic pass use (see newSigmaTables and nonlinearity):
// the centred quadratic forms, the complement for codes past half
// scale, the per-class σ_D and step, and the cancellation-free INL
// deviation. refMonteCarloNL is a verbatim copy of the per-code loop
// the Monte-Carlo kernel replaced. They exist only to pin the kernels'
// recurrences bit for bit; TestSigmaTablesOracle pins their accuracy.

func refSwitches(bits, code int) []bool {
	d := make([]bool, bits+1)
	for k := 1; k <= bits; k++ {
		d[k] = code&(1<<(k-1)) != 0
	}
	return d
}

func refNonlinearity(a *variation.Analysis, par Parasitics) *Result {
	n := a.Bits
	codes := 1 << n
	dim := n + 1
	cNom := make([]float64, dim)
	cT, nT := 0.0, 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
		nT += float64(a.Counts[k])
	}
	sum := 0.0
	for _, v := range a.Cov.Data[:dim*dim] {
		sum += v
	}
	alpha := sum / (nT * nT)
	ct := make([]float64, dim*dim)
	u := make([]float64, dim)
	t := 0.0
	for j := 0; j < dim; j++ {
		for k := 0; k < dim; k++ {
			ct[j*dim+k] = a.Cov.At(j, k) - alpha*float64(a.Counts[j])*float64(a.Counts[k])
			u[j] += ct[j*dim+k]
		}
		t += u[j]
	}
	// on lists code i's switched-on capacitors, ascending.
	on := func(i int) []int {
		var ks []int
		for k, d := range refSwitches(n, i) {
			if d {
				ks = append(ks, k)
			}
		}
		return ks
	}
	fold := func(ks []int, x func(k int) float64) float64 {
		s := 0.0
		for _, k := range ks {
			s += x(k)
		}
		return s
	}
	quad := func(ks []int) float64 {
		v := 0.0
		for idx, top := range ks {
			r := 0.0
			for _, k := range ks[:idx] {
				r += ct[k*dim+top]
			}
			v = v + 2*r + ct[top*dim+top]
		}
		return v
	}
	nomOf := func(k int) float64 { return cNom[k] }
	uOf := func(k int) float64 { return u[k] }
	row0 := func(k int) float64 { return ct[k] }
	sigma := func(i int, ks []int) float64 {
		cOn := fold(ks, nomOf)
		var v float64
		if 2*cOn <= cT {
			r0 := cOn / cT
			v = quad(ks) - 2*r0*fold(ks, uOf) + r0*r0*t
		} else {
			cs := on(codes - 1 - i)
			s := (fold(cs, nomOf) + cNom[0]) / cT
			v = quad(cs) + 2*fold(cs, row0) + ct[0] - 2*s*(fold(cs, uOf)+u[0]) + s*s*t
		}
		return math.Sqrt(math.Max(0, v)) / cT
	}
	// lowBit returns code i's lowest set bit j, Σ_{1≤k<j} n_k and
	// Σ_{1≤k<j} ΔC_k^sys.
	lowBit := func(i int) (j, below int, sysBelow float64) {
		for j = 1; i&(1<<(j-1)) == 0; j++ {
			below += a.Counts[j]
			sysBelow += a.DCSys(j)
		}
		return j, below, sysBelow
	}
	sigmaD := func(i int) float64 {
		j, below, _ := lowBit(i)
		dr0 := float64(a.Counts[j]-below) * a.CuFF / cT
		x := make([]float64, dim)
		for k := range x {
			x[k] = -dr0
			if k >= 1 && k < j {
				x[k]--
			}
		}
		x[j]++
		v := 0.0
		for r, xr := range x {
			s := 0.0
			for c, xc := range x {
				s += ct[r*dim+c] * xc
			}
			v += xr * s
		}
		return math.Sqrt(math.Max(0, v)) / cT
	}

	sysT := 0.0
	for k := 0; k <= n; k++ {
		sysT += a.DCSys(k)
	}
	rest := sysT + (par.CTBOnfF + par.CTBOfffF + par.CTSfF)
	den := cT + rest
	scale := float64(codes)
	lsb := 1 / scale
	res := &Result{ThetaRad: a.ThetaRad}
	for i := 1; i < codes; i++ {
		ks := on(i)
		m := fold(ks, func(k int) float64 { return float64(a.Counts[k]) })
		sysOn := fold(ks, a.DCSys)
		x := float64(i) / scale
		nom := (m*scale - float64(i)*nT) * a.CuFF / scale
		dev := (nom + sysOn + par.CTBOnfF - x*rest) / den
		inl := (math.Abs(dev) + 3*sigma(i, ks)) / lsb
		if inl > res.MaxAbsINL {
			res.MaxAbsINL, res.WorstINLCode = inl, i
		}
		j, below, sysBelow := lowBit(i)
		step := (float64(a.Counts[j]-below)*a.CuFF + (a.DCSys(j) - sysBelow)) / den
		dnl := (math.Abs(step-lsb) + 3*sigmaD(i)) / lsb
		if dnl > res.MaxAbsDNL {
			res.MaxAbsDNL, res.WorstDNLCode = dnl, i
		}
	}
	return res
}

func refMonteCarloNL(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64, endpoint bool) []Result {
	n := a.Bits
	codes := 1 << n
	cNom := make([]float64, n+1)
	cT := 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
	}
	vLSB := vref / float64(codes)
	results := make([]Result, len(shifts))
	out := make([]float64, codes)
	for s, dc := range shifts {
		dCT := par.CTBOnfF + par.CTBOfffF + par.CTSfF
		for k := 0; k <= n; k++ {
			dCT += dc[k]
		}
		for i := 0; i < codes; i++ {
			d := refSwitches(n, i)
			cOn, dOn := 0.0, par.CTBOnfF
			for k := 1; k <= n; k++ {
				if d[k] {
					cOn += cNom[k]
					dOn += dc[k]
				}
			}
			out[i] = vref * (cOn + dOn) / (cT + dCT)
		}
		ref := func(i int) float64 { return IdealOut(n, i) * vref }
		lsb := vLSB
		if endpoint {
			v0, vMax := out[0], out[codes-1]
			lsb = (vMax - v0) / float64(codes-1)
			ref = func(i int) float64 { return v0 + float64(i)*lsb }
		}
		res := Result{ThetaRad: a.ThetaRad}
		for i := 1; i < codes; i++ {
			inl := (out[i] - ref(i)) / lsb
			if abs := math.Abs(inl); abs > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = abs, i
			}
			dnl := (out[i] - out[i-1] - lsb) / lsb
			if abs := math.Abs(dnl); abs > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = abs, i
			}
		}
		results[s] = res
	}
	return results
}

// syntheticAnalysis builds a binary-weighted analysis with perturbed
// gradient shifts and a random SPD covariance — no placement needed,
// so every resolution 1–12 is cheap.
func syntheticAnalysis(bits int, rng *rand.Rand) *variation.Analysis {
	a := &variation.Analysis{
		Bits:     bits,
		Counts:   make([]int, bits+1),
		CuFF:     0.5 + rng.Float64(),
		ThetaRad: rng.Float64() * math.Pi,
		CStar:    make([]float64, bits+1),
		Cov:      linalg.NewDense(bits + 1),
	}
	for k := 0; k <= bits; k++ {
		a.Counts[k] = 1
		if k > 0 {
			a.Counts[k] = 1 << (k - 1)
		}
		a.CStar[k] = float64(a.Counts[k]) * a.CuFF * (1 + 1e-3*rng.NormFloat64())
	}
	// Cov = B·Bᵀ·σ² for a random B: symmetric positive semidefinite.
	b := make([]float64, (bits+1)*(bits+1))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for i := 0; i <= bits; i++ {
		for j := 0; j <= bits; j++ {
			v := 0.0
			for k := 0; k <= bits; k++ {
				v += b[i*(bits+1)+k] * b[j*(bits+1)+k]
			}
			a.Cov.Set(i, j, 1e-6*v)
		}
	}
	return a
}

// syntheticShifts draws per-capacitor shifts small enough that every
// sample's transfer stays increasing end to end.
func syntheticShifts(a *variation.Analysis, samples int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, samples)
	for s := range out {
		dc := make([]float64, a.Bits+1)
		for k := range dc {
			dc[k] = a.DCSys(k) + 1e-3*a.CuFF*rng.NormFloat64()
		}
		out[s] = dc
	}
	return out
}

// TestKernelsMatchReference requires bit identity (== on every Result
// field) between the table-driven NL kernels and the per-code
// reference loops for every resolution 1–12, with and without
// parasitics, on synthetic analyses and on placed spiral arrays.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type tc struct {
		name string
		a    *variation.Analysis
	}
	var cases []tc
	for bits := 1; bits <= 12; bits++ {
		cases = append(cases, tc{fmt.Sprintf("synthetic-%d", bits), syntheticAnalysis(bits, rng)})
	}
	for _, bits := range []int{6, 9} {
		cases = append(cases, tc{fmt.Sprintf("spiral-%d", bits), analysisFor(t, bits, place.Spiral, 0.3)})
	}
	pars := []Parasitics{{}, {CTSfF: 0.37, CTBOnfF: 0.011, CTBOfffF: 0.007}}
	for _, c := range cases {
		shifts := syntheticShifts(c.a, 5, rng)
		for pi, par := range pars {
			name := fmt.Sprintf("%s/par%d", c.name, pi)
			got3, err := Nonlinearity(c.a, par, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			if want := refNonlinearity(c.a, par); *got3 != *want {
				t.Errorf("%s: Nonlinearity = %+v, reference %+v", name, *got3, *want)
			}
			for _, endpoint := range []bool{false, true} {
				var got []Result
				if endpoint {
					got, err = MonteCarloNLEndpoint(c.a, shifts, par, 0.8)
				} else {
					got, err = MonteCarloNL(c.a, shifts, par, 0.8)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := refMonteCarloNL(c.a, shifts, par, 0.8, endpoint)
				for s := range want {
					if got[s] != want[s] {
						t.Errorf("%s endpoint=%v sample %d: %+v, reference %+v", name, endpoint, s, got[s], want[s])
					}
				}
			}
		}
	}
}

// TestMonteCarloNLAllocsFlat guards the table-driven kernel's
// allocation profile: a call allocates a fixed set of per-block
// tables, so allocations per call must not grow with the sample count
// or with the 2^N code count.
func TestMonteCarloNLAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	allocs := func(bits, samples int) float64 {
		a := syntheticAnalysis(bits, rng)
		shifts := syntheticShifts(a, samples, rng)
		return testing.AllocsPerRun(20, func() {
			if _, err := MonteCarloNLEndpoint(a, shifts, Parasitics{CTSfF: 0.2}, 0.8); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(4, 1)
	for _, c := range []struct{ bits, samples int }{{4, 64}, {10, 1}, {10, 64}} {
		if got := allocs(c.bits, c.samples); got != base {
			t.Errorf("%d-bit, %d samples: %v allocs per call, want %v (as 4-bit, 1 sample)", c.bits, c.samples, got, base)
		}
	}
	t.Logf("allocs per call: %v", base)
}

// refWorst is WorstOverTheta's reduction over per-angle reference
// results: max |INL|+|DNL|, first angle wins ties.
func refWorst(as []*variation.Analysis, par Parasitics) *Result {
	worst := refNonlinearity(as[0], par)
	for _, a := range as[1:] {
		if r := refNonlinearity(a, par); r.MaxAbsINL+r.MaxAbsDNL > worst.MaxAbsINL+worst.MaxAbsDNL {
			worst = r
		}
	}
	return worst
}

// angleOf returns a copy of a at another gradient angle: fresh
// systematic shifts, the same Cov pointer, Counts and CuFF — the shape
// of one SweepTheta step.
func angleOf(a *variation.Analysis, rng *rand.Rand) *variation.Analysis {
	b := *a
	b.ThetaRad = rng.Float64() * math.Pi
	b.CStar = make([]float64, len(a.CStar))
	for k := range b.CStar {
		b.CStar[k] = float64(a.Counts[k]) * a.CuFF * (1 + 1e-3*rng.NormFloat64())
	}
	return &b
}

// TestWorstOverThetaMatchesReference requires WorstOverThetaContext,
// which builds the angle-independent σ tables once per distinct
// (Cov, Counts, CuFF), to equal the worst per-angle refNonlinearity
// bit for bit at 1, 2 and 4 workers: on shared-Cov sweeps at 1–12
// bits, on slices mixing analyses whose Cov (by pointer, including an
// equal-valued copy), Counts or CuFF differ, and on a placed sweep.
func TestWorstOverThetaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type tc struct {
		name string
		as   []*variation.Analysis
	}
	var cases []tc
	for bits := 1; bits <= 12; bits++ {
		base := syntheticAnalysis(bits, rng)
		sweep := []*variation.Analysis{base}
		for i := 0; i < 7; i++ {
			sweep = append(sweep, angleOf(base, rng))
		}
		cases = append(cases, tc{fmt.Sprintf("shared-%d", bits), sweep})

		other := syntheticAnalysis(bits, rng) // its own Cov
		sameVals := angleOf(base, rng)
		sameVals.Cov = linalg.NewDense(bits + 1)
		copy(sameVals.Cov.Data, base.Cov.Data)
		counts := angleOf(base, rng)
		counts.Counts = append([]int(nil), base.Counts...)
		counts.Counts[0]++
		cu := angleOf(base, rng)
		cu.CuFF *= 1.25
		mixed := []*variation.Analysis{base, angleOf(base, rng), other, angleOf(other, rng),
			sameVals, counts, angleOf(base, rng), cu}
		cases = append(cases, tc{fmt.Sprintf("mixed-%d", bits), mixed})
		// The worst angle has the first's Counts and CuFF but a larger
		// Cov, so tables reused across Covs change the winner.
		big := angleOf(base, rng)
		big.Cov = linalg.NewDense(bits + 1)
		for i, v := range base.Cov.Data {
			big.Cov.Data[i] = 50 * v
		}
		cases = append(cases, tc{fmt.Sprintf("mixed-big-%d", bits), []*variation.Analysis{base, big, angleOf(base, rng)}})
	}
	m, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	placed, err := variation.SweepThetaContext(context.Background(), m, variation.GridPositioner(tch), tch, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"placed-spiral-8", placed})

	pars := []Parasitics{{}, {CTSfF: 0.37, CTBOnfF: 0.011, CTBOfffF: 0.007}}
	for _, c := range cases {
		for pi, par := range pars {
			want := refWorst(c.as, par)
			for _, workers := range []int{1, 2, 4} {
				ctx := parpkg.WithWorkers(context.Background(), workers)
				got, err := WorstOverThetaContext(ctx, c.as, par, 1.0)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Errorf("%s/par%d/workers=%d: WorstOverTheta = %+v, reference %+v", c.name, pi, workers, *got, *want)
				}
			}
		}
	}
}
