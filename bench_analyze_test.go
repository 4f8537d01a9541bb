// Benchmarks and the acceptance report for the analysis hot paths:
// the memoized parallel covariance build, the track-grouped coupling sweep,
// the parallel per-bit extraction, the Elmore tree analysis, the
// route→extract promotion loop and the routed theta-sweep analysis.
// TestBenchAnalyze (gated on BENCH_ANALYZE_OUT) regenerates
// BENCH_analyze.json, comparing each optimized path against a
// seed-style serial reference in-process.
package ccdac_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/dacmodel"
	"ccdac/internal/extract"
	"ccdac/internal/geom"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// BenchmarkAnalyzeCov measures the covariance-dominated variation
// analysis, serial (workers = -1) and at the default worker budget:
// spiral placement grids at 6, 8, 10 and 12 bits (uniform columns),
// plus the routed 11-bit spiral, whose dummy cells leave an
// incomplete channel-shifted lattice.
func BenchmarkAnalyzeCov(b *testing.B) {
	t := tech.FinFET12()
	type input struct {
		name string
		m    *ccmatrix.Matrix
		pos  variation.Positioner
	}
	var inputs []input
	for _, bits := range []int{6, 8, 10, 12} {
		m, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("N%d", bits), m, variation.GridPositioner(t)})
	}
	m, err := place.NewSpiral(11)
	if err != nil {
		b.Fatal(err)
	}
	l, err := route.Route(m, t, nil)
	if err != nil {
		b.Fatal(err)
	}
	inputs = append(inputs, input{"N11-routed", m, l.CellCenter})
	for _, in := range inputs {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", -1}, {"parallel", 0}} {
			ctx := par.WithWorkers(context.Background(), mode.workers)
			b.Run(in.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := analyze(ctx, in.m, in.pos, t, math.Pi/4); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCoupleSweep measures just the inter-bit coupling sweep of a
// routed layout (the track-grouped pass): spiral 6/8/10, whose few
// coupled pairs leave the grouping itself as the cost, and the routed
// 12-bit chessboard (about 13k coupled pairs on crowded tracks) and
// block chessboard, the sweeps the flow pays for.
func BenchmarkCoupleSweep(b *testing.B) {
	t := tech.FinFET12()
	type input struct {
		name string
		m    *ccmatrix.Matrix
	}
	var inputs []input
	for _, bits := range []int{6, 8, 10} {
		m, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("N%d", bits), m})
	}
	cb, err := place.NewChessboard(12)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := place.NewBlockChessboard(12, place.BCParams{CoreBits: 4, BlockCells: 2})
	if err != nil {
		b.Fatal(err)
	}
	inputs = append(inputs, input{"N12-chessboard", cb}, input{"N12-block-chessboard", bc})
	for _, in := range inputs {
		l, err := route.Route(in.m, t, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				extract.Coupling(l)
			}
		})
	}
}

// BenchmarkExtractBits measures the full extraction with the per-bit
// network build serial vs at the default worker budget, on 6/8/10-bit
// spirals and on the flow workload's heaviest extractions, the 12-bit
// chessboard and block-chessboard arrays.
func BenchmarkExtractBits(b *testing.B) {
	t := tech.FinFET12()
	type input struct {
		name string
		m    *ccmatrix.Matrix
	}
	var inputs []input
	for _, bits := range []int{6, 8, 10} {
		m, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("N%d", bits), m})
	}
	cb, err := place.NewChessboard(12)
	if err != nil {
		b.Fatal(err)
	}
	bc, err := place.NewBlockChessboard(12, place.BCParams{CoreBits: 4, BlockCells: 2})
	if err != nil {
		b.Fatal(err)
	}
	inputs = append(inputs, input{"N12-chessboard", cb}, input{"N12-block-chessboard", bc})
	for _, in := range inputs {
		l, err := route.Route(in.m, t, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", -1}, {"parallel", 0}} {
			ctx := par.WithWorkers(context.Background(), mode.workers)
			b.Run(in.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := extract.ExtractContext(ctx, l); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkElmoreTree measures the tree analysis of the critical bit's
// network of a routed 12-bit chessboard — the largest net the
// promotion loop analyzes.
func BenchmarkElmoreTree(b *testing.B) {
	m, err := place.NewChessboard(12)
	if err != nil {
		b.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := extract.Extract(l)
	if err != nil {
		b.Fatal(err)
	}
	bn := s.Bits[s.CriticalBit()]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bn.Net.ElmoreTree(bn.Root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPromotionLoop measures the flow's route→extract loop on a
// 12-bit chessboard at MaxParallel 2: route, extract, promote the
// critical bit to two wires, until the critical bit is parallel.
func BenchmarkPromotionLoop(b *testing.B) {
	t := tech.FinFET12()
	m, err := place.NewChessboard(12)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := promotionLoop(ctx, m, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThetaSweepRouted measures the flow's analysis tail on the
// promotion loop's final layout of a 12-bit chessboard: an 8-step
// SweepThetaContext (separable-tier covariance over the routed cell
// centers) and WorstOverThetaContext over it.
func BenchmarkThetaSweepRouted(b *testing.B) {
	t := tech.FinFET12()
	m, err := place.NewChessboard(12)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	l, sum, err := promotionLoop(ctx, m, t)
	if err != nil {
		b.Fatal(err)
	}
	par := dacmodel.Parasitics{CTSfF: sum.CTSfF}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as, err := variation.SweepThetaContext(ctx, m, l.CellCenter, t, 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dacmodel.WorstOverThetaContext(ctx, as, par, t.VRef); err != nil {
			b.Fatal(err)
		}
	}
}

// promotionLoop runs the flow's route→extract loop at MaxParallel 2 and
// returns the final layout and its extraction.
func promotionLoop(ctx context.Context, m *ccmatrix.Matrix, t *tech.Technology) (*route.Layout, *extract.Summary, error) {
	parOf := make([]int, m.Bits+1)
	for k := range parOf {
		parOf[k] = 1
	}
	for {
		l, err := route.RouteContext(ctx, m, t, parOf)
		if err != nil {
			return nil, nil, err
		}
		s, err := extract.ExtractContext(ctx, l)
		if err != nil {
			return nil, nil, err
		}
		crit := s.CriticalBit()
		if parOf[crit] >= 2 {
			return l, s, nil
		}
		parOf[crit] = 2
	}
}

// naiveCovarianceBuild is the seed's covariance formulation: a full
// double loop over every unit-cell pair with per-pair Euclidean
// distance and math.Pow — no memo, no exp form, no symmetry halving.
func naiveCovarianceBuild(m *ccmatrix.Matrix, pos variation.Positioner, t *tech.Technology) [][]float64 {
	n := m.Bits + 1
	cells := make([][]geom.Pt, n)
	for bit := 0; bit < n; bit++ {
		for _, c := range m.CellsOf(bit) {
			cells[bit] = append(cells[bit], pos(c))
		}
	}
	sigmaU := t.SigmaU()
	cov := make([][]float64, n)
	for j := 0; j < n; j++ {
		cov[j] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			var sum float64
			for _, pj := range cells[j] {
				for _, pk := range cells[k] {
					sum += math.Pow(t.Mis.RhoU, pj.Dist(pk)/t.Mis.LcUm)
				}
			}
			c := sigmaU * sigmaU * sum
			cov[j][k] = c
			cov[k][j] = c
		}
	}
	return cov
}

// quadraticCoupleSweep is the seed's O(W²) all-pairs coupling scan,
// the reference the track-grouped sweep (reported as binned_seconds)
// is measured against.
func quadraticCoupleSweep(l *route.Layout) (cbb float64, pairs int) {
	const couplingReach = 6.0
	for i := 0; i < len(l.Wires); i++ {
		wi := l.Wires[i]
		if wi.Bit == route.TopPlateBit {
			continue
		}
		for j := i + 1; j < len(l.Wires); j++ {
			wj := l.Wires[j]
			if wj.Bit == route.TopPlateBit || wj.Bit == wi.Bit || wi.Layer != wj.Layer {
				continue
			}
			sep := wi.Seg.Separation(wj.Seg)
			if sep == 0 || sep > couplingReach*l.Tech.SMinUm {
				continue
			}
			ov := wi.Seg.OverlapLen(wj.Seg)
			if ov <= 0 {
				continue
			}
			cbb += l.Tech.CouplingfFPerUm(sep) * ov
			pairs++
		}
	}
	return cbb, pairs
}

// rowMajorMatrix builds a valid binary-weighted placement above the
// public bits cap by assigning capacitors to row-major runs of the
// grid. Covariance cost does not depend on the assignment pattern, so
// this is a fair timing stand-in for a 14-bit layout.
func rowMajorMatrix(bits int) *ccmatrix.Matrix {
	side := 1 << (uint(bits) / 2)
	rows, cols := side, side
	if bits%2 == 1 {
		cols *= 2
	}
	m := ccmatrix.New(rows, cols, bits, 1)
	i := 0
	for k, n := range ccmatrix.UnitCounts(bits) {
		for u := 0; u < n; u++ {
			m.Set(geom.Cell{Row: i / cols, Col: i % cols}, k)
			i++
		}
	}
	return m
}

// bestOf runs f reps times and returns the fastest wall time.
// analyze builds a variation prefix under ctx and evaluates it at one
// gradient angle.
func analyze(ctx context.Context, m *ccmatrix.Matrix, pos variation.Positioner, t *tech.Technology, theta float64) (*variation.Analysis, error) {
	sh, err := variation.NewSharedContext(ctx, m, pos, t)
	if err != nil {
		return nil, err
	}
	return sh.Analysis(theta), nil
}

func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestBenchAnalyze writes the hot-path acceptance report: the 10-bit
// covariance build against the seed-style serial reference (the ≥3×
// acceptance criterion) and the coupling sweep's scaling against the
// quadratic reference. Gated so routine test runs stay fast:
//
//	BENCH_ANALYZE_OUT=BENCH_analyze.json go test -run TestBenchAnalyze .
func TestBenchAnalyze(t *testing.T) {
	out := os.Getenv("BENCH_ANALYZE_OUT")
	if out == "" {
		t.Skip("set BENCH_ANALYZE_OUT=<file> to write the analysis hot-path benchmark report")
	}
	tch := tech.FinFET12()
	pos := variation.GridPositioner(tch)

	const covBits = 10
	m, err := place.NewSpiral(covBits)
	if err != nil {
		t.Fatal(err)
	}
	// One untimed run first so the comparison measures the steady
	// state a pipeline run sees (warm allocator and caches), then time
	// both formulations.
	if _, err := analyze(context.Background(), m, pos, tch, 0); err != nil {
		t.Fatal(err)
	}
	naive := bestOf(3, func() { naiveCovarianceBuild(m, pos, tch) })
	optimized := bestOf(3, func() {
		if _, err := analyze(context.Background(), m, pos, tch, 0); err != nil {
			t.Fatal(err)
		}
	})
	covSpeedup := naive.Seconds() / optimized.Seconds()
	if covSpeedup < 3 {
		t.Errorf("10-bit covariance speedup = %.2fx, acceptance requires >= 3x", covSpeedup)
	}

	type couplingPoint struct {
		Style            string  `json:"style"`
		Bits             int     `json:"bits"`
		Wires            int     `json:"wires"`
		Pairs            int     `json:"pairs"`
		BinnedSeconds    float64 `json:"binned_seconds"`
		QuadraticSeconds float64 `json:"quadratic_seconds"`
		Speedup          float64 `json:"speedup"`
	}
	// Spiral 6/8/10 carry the scaling exponent; the routed 12-bit
	// chessboard and block chessboard are the crowded-track sweeps the
	// flow pays for.
	cb12, err := place.NewChessboard(12)
	if err != nil {
		t.Fatal(err)
	}
	bc12, err := place.NewBlockChessboard(12, place.BCParams{CoreBits: 4, BlockCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	type couplingInput struct {
		style string
		m     *ccmatrix.Matrix
	}
	var couplingInputs []couplingInput
	for _, bits := range []int{6, 8, 10} {
		pm, err := place.NewSpiral(bits)
		if err != nil {
			t.Fatal(err)
		}
		couplingInputs = append(couplingInputs, couplingInput{"spiral", pm})
	}
	couplingInputs = append(couplingInputs, couplingInput{"chessboard", cb12}, couplingInput{"block-chessboard", bc12})
	var coupling []couplingPoint
	for _, in := range couplingInputs {
		l, err := route.Route(in.m, tch, nil)
		if err != nil {
			t.Fatal(err)
		}
		var cbb float64
		var pairs int
		binned := bestOf(5, func() { cbb, pairs = extract.Coupling(l) })
		var refCBB float64
		var refPairs int
		quadratic := bestOf(5, func() { refCBB, refPairs = quadraticCoupleSweep(l) })
		if pairs != refPairs || math.Abs(cbb-refCBB) > 1e-9*math.Max(1, refCBB) {
			t.Fatalf("%s N%d: binned sweep (%g fF, %d pairs) disagrees with quadratic reference (%g fF, %d pairs)",
				in.style, in.m.Bits, cbb, pairs, refCBB, refPairs)
		}
		coupling = append(coupling, couplingPoint{
			Style:            in.style,
			Bits:             in.m.Bits,
			Wires:            len(l.Wires),
			Pairs:            pairs,
			BinnedSeconds:    binned.Seconds(),
			QuadraticSeconds: quadratic.Seconds(),
			Speedup:          quadratic.Seconds() / binned.Seconds(),
		})
	}
	first, last := coupling[0], coupling[2]
	// Empirical scaling exponent of the track-grouped sweep in wire
	// count; the quadratic reference sits at ~2 by construction.
	binnedExp := math.Log(last.BinnedSeconds/first.BinnedSeconds) /
		math.Log(float64(last.Wires)/float64(first.Wires))
	quadExp := math.Log(last.QuadraticSeconds/first.QuadraticSeconds) /
		math.Log(float64(last.Wires)/float64(first.Wires))
	if last.BinnedSeconds >= last.QuadraticSeconds {
		t.Errorf("10-bit binned sweep (%v) not faster than quadratic reference (%v)",
			time.Duration(last.BinnedSeconds*float64(time.Second)),
			time.Duration(last.QuadraticSeconds*float64(time.Second)))
	}
	if binnedExp >= quadExp {
		t.Errorf("binned scaling exponent %.2f not below quadratic reference's %.2f", binnedExp, quadExp)
	}

	// FFT-vs-dense covariance engines, serial so the comparison is
	// algorithmic rather than scheduling. 12 bits is the public cap and
	// carries the >=5x acceptance assert; 14 bits (internal-only grid)
	// shows the gap keeps widening with the O(n²)-vs-O(M log M) split.
	type fftPoint struct {
		Bits         int     `json:"bits"`
		Cells        int     `json:"cells"`
		DenseSeconds float64 `json:"dense_seconds"`
		FFTSeconds   float64 `json:"fft_seconds"`
		Speedup      float64 `json:"speedup"`
		MaxRelDiff   float64 `json:"max_rel_diff"`
	}
	serialFFT := par.WithWorkers(context.Background(), -1)
	serialDense := variation.WithFFTMode(serialFFT, variation.FFTOff)
	var fftCases []fftPoint
	for _, bits := range []int{12, 14} {
		var fm *ccmatrix.Matrix
		if bits <= 12 {
			fm, err = place.NewSpiral(bits)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			fm = rowMajorMatrix(bits)
		}
		reps := 3
		if bits >= 14 {
			reps = 2
		}
		var structured, dense *variation.Analysis
		fftTime := bestOf(reps, func() {
			if structured, err = analyze(serialFFT, fm, pos, tch, 0); err != nil {
				t.Fatal(err)
			}
		})
		denseTime := bestOf(reps, func() {
			if dense, err = analyze(serialDense, fm, pos, tch, 0); err != nil {
				t.Fatal(err)
			}
		})
		maxRel := 0.0
		for j := 0; j <= bits; j++ {
			for k := 0; k <= bits; k++ {
				s, d := structured.Cov.At(j, k), dense.Cov.At(j, k)
				if e := math.Abs(s-d) / math.Abs(d); e > maxRel {
					maxRel = e
				}
			}
		}
		if maxRel > 1e-10 {
			t.Errorf("N%d: FFT vs dense covariance rel diff %g exceeds 1e-10", bits, maxRel)
		}
		speedup := denseTime.Seconds() / fftTime.Seconds()
		if bits == 12 && speedup < 5 {
			t.Errorf("12-bit FFT covariance speedup = %.2fx, acceptance requires >= 5x", speedup)
		}
		fftCases = append(fftCases, fftPoint{
			Bits:         bits,
			Cells:        fm.Rows * fm.Cols,
			DenseSeconds: denseTime.Seconds(),
			FFTSeconds:   fftTime.Seconds(),
			Speedup:      speedup,
			MaxRelDiff:   maxRel,
		})
	}

	// The separable (routed-layout) tier: the same 12-bit array through
	// its routed CellCenter positions, where the non-uniform channel
	// widths break the regular lattice and the row-spectral embedding
	// carries the structured path — analysis and Monte-Carlo.
	routedM, err := place.NewSpiral(12)
	if err != nil {
		t.Fatal(err)
	}
	routedL, err := route.Route(routedM, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	routedPos := variation.Positioner(routedL.CellCenter)
	var rStruct, rDense *variation.Analysis
	routedFFT := bestOf(3, func() {
		if rStruct, err = analyze(serialFFT, routedM, routedPos, tch, 0); err != nil {
			t.Fatal(err)
		}
	})
	routedDense := bestOf(3, func() {
		if rDense, err = analyze(serialDense, routedM, routedPos, tch, 0); err != nil {
			t.Fatal(err)
		}
	})
	routedRel := 0.0
	for j := 0; j <= 12; j++ {
		for k := 0; k <= 12; k++ {
			s, d := rStruct.Cov.At(j, k), rDense.Cov.At(j, k)
			if e := math.Abs(s-d) / math.Abs(d); e > routedRel {
				routedRel = e
			}
		}
	}
	if routedRel > 1e-10 {
		t.Errorf("routed N12: FFT vs dense covariance rel diff %g exceeds 1e-10", routedRel)
	}
	routedSpeedup := routedDense.Seconds() / routedFFT.Seconds()
	if routedSpeedup < 3 {
		t.Errorf("routed 12-bit FFT covariance speedup = %.2fx, want >= 3x", routedSpeedup)
	}
	routedPoint := fftPoint{
		Bits:         12,
		Cells:        routedM.Rows * routedM.Cols,
		DenseSeconds: routedDense.Seconds(),
		FFTSeconds:   routedFFT.Seconds(),
		Speedup:      routedSpeedup,
		MaxRelDiff:   routedRel,
	}
	// mcTime is the best of reps draws of samples [0, n) under ctx, each
	// from a fresh structured Shared built outside the timer, so every
	// timed draw still pays the sampler set-up, as a one-shot estimate
	// does.
	mcTime := func(reps int, ctx context.Context, m *ccmatrix.Matrix, pos variation.Positioner, n int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < reps; i++ {
			sh, err := variation.NewSharedContext(serialFFT, m, pos, tch)
			if err != nil {
				t.Fatal(err)
			}
			a := sh.Analysis(0)
			start := time.Now()
			if _, err := sh.MonteCarloRangeContext(ctx, a, 0, n, 1); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	const mcRoutedSamples = 100
	mcRoutedFFT := mcTime(2, serialFFT, routedM, routedPos, mcRoutedSamples)
	mcRoutedDense := mcTime(2, serialDense, routedM, routedPos, mcRoutedSamples)
	// FFTOff samples at capacitor level: one (N+1)×(N+1) factor and
	// O(N²) per sample, against the spectral sampler's per-sample
	// unit-lattice draw.
	if s := mcRoutedFFT.Seconds() / mcRoutedDense.Seconds(); s < 3 {
		t.Errorf("routed 12-bit exact (FFTOff) MC is %.2fx faster than spectral, want >= 3x", s)
	}

	// Monte-Carlo engines at 10 bits: the spectral sampler against the
	// exact capacitor-level one (FFTOff), then a million-sample
	// spectral run (6 bits) proving sampling throughput needs no n×n
	// matrix at any sample count.
	mcM, err := place.NewSpiral(10)
	if err != nil {
		t.Fatal(err)
	}
	const mcSamples = 2000
	mcFFT := mcTime(2, serialFFT, mcM, pos, mcSamples)
	mcDense := mcTime(2, serialDense, mcM, pos, mcSamples)
	mcSmall, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	const millionSamples = 1_000_000
	million := mcTime(1, serialFFT, mcSmall, pos, millionSamples)

	report := struct {
		GOMAXPROCS        int             `json:"gomaxprocs"`
		CovarianceBits    int             `json:"covariance_bits"`
		SeedSerialSeconds float64         `json:"covariance_seed_serial_seconds"`
		OptimizedSeconds  float64         `json:"covariance_optimized_seconds"`
		CovSpeedup        float64         `json:"covariance_speedup"`
		Coupling          []couplingPoint `json:"coupling"`
		BinnedScalingExp  float64         `json:"coupling_binned_scaling_exponent"`
		QuadScalingExp    float64         `json:"coupling_quadratic_scaling_exponent"`
		FFT               []fftPoint      `json:"fft"`
		FFTRouted         fftPoint        `json:"fft_routed"`
		MCRoutedSamples   int             `json:"mc_routed_samples"`
		MCRoutedDenseSecs float64         `json:"mc_routed_dense_seconds"`
		MCRoutedFFTSecs   float64         `json:"mc_routed_fft_seconds"`
		MCRoutedSpeedup   float64         `json:"mc_routed_speedup"`
		MCBits            int             `json:"mc_bits"`
		MCSamples         int             `json:"mc_samples"`
		MCDenseSeconds    float64         `json:"mc_dense_seconds"`
		MCFFTSeconds      float64         `json:"mc_fft_seconds"`
		MCSpeedup         float64         `json:"mc_speedup"`
		MCMillionBits     int             `json:"mc_million_bits"`
		MCMillionSamples  int             `json:"mc_million_samples"`
		MCMillionSeconds  float64         `json:"mc_million_seconds"`
		MCSamplesPerSec   float64         `json:"mc_fft_samples_per_second"`
	}{
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		CovarianceBits:    covBits,
		SeedSerialSeconds: naive.Seconds(),
		OptimizedSeconds:  optimized.Seconds(),
		CovSpeedup:        covSpeedup,
		Coupling:          coupling,
		BinnedScalingExp:  binnedExp,
		QuadScalingExp:    quadExp,
		FFT:               fftCases,
		FFTRouted:         routedPoint,
		MCRoutedSamples:   mcRoutedSamples,
		MCRoutedDenseSecs: mcRoutedDense.Seconds(),
		MCRoutedFFTSecs:   mcRoutedFFT.Seconds(),
		MCRoutedSpeedup:   mcRoutedDense.Seconds() / mcRoutedFFT.Seconds(),
		MCBits:            10,
		MCSamples:         mcSamples,
		MCDenseSeconds:    mcDense.Seconds(),
		MCFFTSeconds:      mcFFT.Seconds(),
		MCSpeedup:         mcDense.Seconds() / mcFFT.Seconds(),
		MCMillionBits:     6,
		MCMillionSamples:  millionSamples,
		MCMillionSeconds:  million.Seconds(),
		MCSamplesPerSec:   float64(millionSamples) / million.Seconds(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("covariance: seed %v -> optimized %v (%.1fx); coupling exponent %.2f vs %.2f -> %s",
		naive, optimized, covSpeedup, binnedExp, quadExp, out)
	for _, p := range fftCases {
		t.Logf("fft covariance N%d (%d cells): dense %v -> fft %v (%.1fx, rel diff %.2g)",
			p.Bits, p.Cells, time.Duration(p.DenseSeconds*float64(time.Second)),
			time.Duration(p.FFTSeconds*float64(time.Second)), p.Speedup, p.MaxRelDiff)
	}
	t.Logf("routed N12: analyze dense %v -> fft %v (%.1fx, rel diff %.2g); mc x%d exact %v -> fft %v (%.2fx)",
		routedDense, routedFFT, routedSpeedup, routedRel,
		mcRoutedSamples, mcRoutedDense, mcRoutedFFT, report.MCRoutedSpeedup)
	t.Logf("mc N10 x%d: exact %v -> fft %v (%.2fx); 1e6-sample spectral run: %v (%.0f samples/s)",
		mcSamples, mcDense, mcFFT, report.MCSpeedup, million, report.MCSamplesPerSec)
}
