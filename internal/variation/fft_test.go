package variation

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/fault"
	"ccdac/internal/geom"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// tracedCtx returns a context carrying a fresh trace, plus the trace
// for counter assertions, so tests can verify which covariance engine
// actually ran rather than trusting the selection logic.
func tracedCtx(t *testing.T) (context.Context, *obs.Trace) {
	t.Helper()
	tr := obs.New(obs.Options{})
	t.Cleanup(tr.Finish)
	return obs.WithTrace(context.Background(), tr), tr
}

// spanAnalyze runs analyze under a span of its own and returns the
// cov_* attributes the covariance build left on it.
func spanAnalyze(t *testing.T, ctx context.Context, tr *obs.Trace, m *ccmatrix.Matrix, pos Positioner, tch *tech.Technology) (*Analysis, map[string]string) {
	t.Helper()
	sctx, span := obs.StartSpan(ctx, "analysis")
	a, err := analyze(sctx, m, pos, tch, 0)
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	return a, spans[len(spans)-1].Attrs
}

// TestStructuredCovarianceMatchesDense is the engine-equivalence
// property: over spiral, chessboard and randomized symmetric layouts
// on the regular grid, the FFT path must reproduce the dense pair-sum
// covariance to near round-off. Both paths evaluate rho at the same
// quantization points, so the only daylight is transform arithmetic;
// the trace counter proves the structured engine actually ran.
func TestStructuredCovarianceMatchesDense(t *testing.T) {
	tch := tech.FinFET12()
	pos := GridPositioner(tch)
	for _, tc := range []struct {
		name string
		mk   func() (*ccmatrix.Matrix, error)
	}{
		{"spiral8", func() (*ccmatrix.Matrix, error) { return place.NewSpiral(8) }},
		{"chessboard6", func() (*ccmatrix.Matrix, error) { return place.NewChessboard(6) }},
		{"random7_seed1", func() (*ccmatrix.Matrix, error) { return place.NewRandomSymmetric(7, 1) }},
		{"random7_seed99", func() (*ccmatrix.Matrix, error) { return place.NewRandomSymmetric(7, 99) }},
		{"random9_seed7", func() (*ccmatrix.Matrix, error) { return place.NewRandomSymmetric(9, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			ctx, tr := tracedCtx(t)
			structured, err := analyze(ctx, m, pos, tch, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Registry().Snapshot().Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "analyze"}); got != 1 {
				t.Fatalf("structured_total{analyze} = %d, want 1 (FFT path did not engage)", got)
			}
			dense, err := analyze(WithFFTMode(context.Background(), FFTOff), m, pos, tch, 0)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for j := 0; j <= m.Bits; j++ {
				for k := 0; k <= m.Bits; k++ {
					s, d := structured.Cov.At(j, k), dense.Cov.At(j, k)
					if e := math.Abs(s-d) / math.Abs(d); e > worst {
						worst = e
					}
				}
			}
			if worst > 1e-10 {
				t.Errorf("FFT vs dense covariance rel err = %g, want <= 1e-10", worst)
			}
			t.Logf("FFT vs dense covariance rel err = %.3g", worst)
		})
	}
}

// TestMonteCarloFFTSampleCovariance: the spectral sampler's empirical
// capacitor-shift covariance must converge to the analytic covariance
// the dense engine computes — the distributional equivalence the
// sampler swap rests on. Fixed seed makes the drift deterministic.
func TestMonteCarloFFTSampleCovariance(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	sh, err := NewSharedContext(context.Background(), m, GridPositioner(tch), tch)
	if err != nil {
		t.Fatal(err)
	}
	a := sh.Analysis(0)
	const samples, seed = 4000, 7
	ctx, tr := tracedCtx(t)
	out, err := sh.MonteCarloRangeContext(ctx, a, 0, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Registry().Snapshot()
	if got := snap.Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "mc"}); got != 1 {
		t.Fatalf("structured_total{mc} = %d, want 1 (spectral sampler did not engage)", got)
	}
	if got := snap.Counter("ccdac_numeric_fft_samples_total", nil); got != samples {
		t.Errorf("samples_total = %d, want %d", got, samples)
	}

	// Empirical covariance of the random part (systematic shift removed).
	n := m.Bits + 1
	acc := make([]float64, n*n)
	for _, shifts := range out {
		for j := 0; j < n; j++ {
			dj := shifts[j] - a.DCSys(j)
			for k := j; k < n; k++ {
				acc[j*n+k] += dj * (shifts[k] - a.DCSys(k))
			}
		}
	}
	worst := 0.0
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			got := acc[j*n+k] / samples
			want := a.Cov.At(j, k)
			scale := math.Sqrt(a.Cov.At(j, j) * a.Cov.At(k, k))
			if e := math.Abs(got-want) / scale; e > worst {
				worst = e
			}
		}
	}
	// Monte-Carlo noise at 4000 samples is ~1/sqrt(4000) ≈ 1.6% per
	// normalized entry; 0.1 leaves a wide deterministic margin.
	if worst > 0.1 {
		t.Errorf("spectral-sampler covariance drift = %g, want <= 0.1", worst)
	}
	t.Logf("spectral-sampler covariance drift = %.3g over %d samples", worst, samples)
}

// TestFFTFaultFallsBackDense: an injected numeric.fft fault degrades
// to the dense engine — bitwise-identical results to FFTOff, a
// warning on the analysis, and the fallback counter incremented. The
// CG→Cholesky ladder contract, applied to the covariance engine and
// then to the sampler.
func TestFFTFaultFallsBackDense(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	pos := GridPositioner(tch)

	fault.Enable(fault.StageFFT, 0, errors.New("injected fft fault"))
	defer fault.Reset()
	ctx, tr := tracedCtx(t)
	got, attrs := spanAnalyze(t, ctx, tr, m, pos, tch)
	if !fault.Fired(fault.StageFFT) {
		t.Fatal("injected fault never fired")
	}
	if attrs["cov_engine"] != "dense" || attrs["cov_lattice"] != "separable" ||
		attrs["cov_dense_reason"] != "fallback: injected fft fault" {
		t.Errorf("span attrs = %v, want the dense engine, a separable lattice and the fallback reason", attrs)
	}
	if len(got.Warnings) == 0 || !strings.Contains(got.Warnings[0], "dense fallback") {
		t.Errorf("Warnings = %q, want a dense-fallback warning", got.Warnings)
	}
	if c := tr.Registry().Snapshot().Counter("ccdac_numeric_fft_fallback_total", obs.Labels{"path": "analyze"}); c != 1 {
		t.Errorf("fallback_total{analyze} = %d, want 1", c)
	}
	want, err := analyze(WithFFTMode(context.Background(), FFTOff), m, pos, tch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j <= m.Bits; j++ {
		for k := 0; k <= m.Bits; k++ {
			if g, w := got.Cov.At(j, k), want.Cov.At(j, k); g != w {
				t.Fatalf("Cov(%d,%d) = %.17g faulted vs %.17g dense — fallback is not the dense path", j, k, g, w)
			}
		}
	}

	// Same ladder for the sampler: the fault pushes Monte Carlo onto the
	// exact capacitor-level sampler, whose fixed-seed output is
	// byte-identical to an explicit FFTOff run. The Shared is built
	// before the fault is armed: its covariance build would consume the
	// fault's first pass.
	fault.Reset()
	sh, err := NewSharedContext(context.Background(), m, pos, tch)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(fault.StageFFT, 0, errors.New("injected fft fault"))
	const samples, seed = 16, 99
	mctx, mtr := tracedCtx(t)
	faulted, err := sh.MonteCarloRangeContext(mctx, got, 0, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !fault.Fired(fault.StageFFT) {
		t.Fatal("injected sampler fault never fired")
	}
	if c := mtr.Registry().Snapshot().Counter("ccdac_numeric_fft_fallback_total", obs.Labels{"path": "mc"}); c != 1 {
		t.Errorf("fallback_total{mc} = %d, want 1", c)
	}
	fault.Reset()
	dense, err := sh.MonteCarloRangeContext(WithFFTMode(context.Background(), FFTOff), got, 0, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	for s := range dense {
		for k := range dense[s] {
			if faulted[s][k] != dense[s][k] {
				t.Fatalf("sample %d bit %d: %.17g faulted vs %.17g dense", s, k, faulted[s][k], dense[s][k])
			}
		}
	}
}

// TestIrregularLayoutKeepsDensePath: a positioner off both structured
// lattices must not engage the structured path — no structured
// counter, no fallback counter (an irregular layout is the dense path
// working as designed, not a degradation), no warnings.
func TestIrregularLayoutKeepsDensePath(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	grid := GridPositioner(tch)
	warped := func(c geom.Cell) geom.Pt {
		p := grid(c)
		// Row-dependent x warp: breaks the uniform lattice AND the
		// separable (shared column x) one, far beyond the fit tolerance,
		// while keeping positions sane.
		p.X += 0.01 * (p.Y + 1) * p.X * p.X / (tch.Unit.W * float64(m.Cols))
		return p
	}
	ctx, tr := tracedCtx(t)
	a, attrs := spanAnalyze(t, ctx, tr, m, warped, tch)
	if attrs["cov_engine"] != "dense" || attrs["cov_lattice"] != "none" || attrs["cov_dense_reason"] != "no lattice" {
		t.Errorf("span attrs = %v, want the dense engine for want of a lattice", attrs)
	}
	snap := tr.Registry().Snapshot()
	if c := snap.Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "analyze"}); c != 0 {
		t.Errorf("structured_total{analyze} = %d on an irregular layout, want 0", c)
	}
	if c := snap.Counter("ccdac_numeric_fft_fallback_total", obs.Labels{"path": "analyze"}); c != 0 {
		t.Errorf("fallback_total{analyze} = %d on an irregular layout, want 0 (not a degradation)", c)
	}
	if len(a.Warnings) != 0 {
		t.Errorf("Warnings = %q on an irregular layout, want none", a.Warnings)
	}
}

// routedLayout routes a placement and returns it with the physical
// cell positioner — the product flow's geometry, whose variable
// channel widths put the columns off any uniform pitch.
func routedLayout(t *testing.T, m *ccmatrix.Matrix, tch *tech.Technology) Positioner {
	t.Helper()
	l, err := route.Route(m, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l.CellCenter
}

// TestRoutedLayoutStructuredCovariance: the structured engine must
// engage on real routed layouts — the product flow serve and cmd/yield
// drive — and reproduce the dense covariance to near round-off. The
// odd-bit spiral and block-chessboard arrays, routed through the
// flow's promotion loop, carry dummy cells: their lattice is
// incomplete, which the fit must accept. The test first proves the
// geometry does NOT fit the uniform lattice, so the equivalence
// exercises channel-shifted columns.
func TestRoutedLayoutStructuredCovariance(t *testing.T) {
	tch := tech.FinFET12()
	routed := func(t *testing.T, m *ccmatrix.Matrix) Positioner { return routedLayout(t, m, tch) }
	promoted := func(t *testing.T, m *ccmatrix.Matrix) Positioner {
		return routedPromoted(par.WithWorkers(context.Background(), 2), t, m, tch).CellCenter
	}
	for _, tc := range []struct {
		name   string
		mk     func() (*ccmatrix.Matrix, error)
		layout func(*testing.T, *ccmatrix.Matrix) Positioner
	}{
		{"spiral8", func() (*ccmatrix.Matrix, error) { return place.NewSpiral(8) }, routed},
		{"chessboard6", func() (*ccmatrix.Matrix, error) { return place.NewChessboard(6) }, routed},
		{"block-chessboard9", func() (*ccmatrix.Matrix, error) {
			return place.NewBlockChessboard(9, place.BCParams{CoreBits: 4, BlockCells: 2})
		}, promoted},
		{"spiral11", func() (*ccmatrix.Matrix, error) { return place.NewSpiral(11) }, promoted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			pos := tc.layout(t, m)
			g := gatherCells(m, pos)
			lat := fitLattice(g.flat, g.rows, g.cols)
			if lat.uniform {
				t.Fatal("routed layout fits the uniform lattice — test would not cover shifted columns")
			}
			if !lat.ok {
				t.Fatal("routed layout does not fit the separable lattice")
			}
			ctx, tr := tracedCtx(t)
			structured, err := analyze(ctx, m, pos, tch, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := tr.Registry().Snapshot().Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "analyze"}); got != 1 {
				t.Fatalf("structured_total{analyze} = %d, want 1 (separable path did not engage)", got)
			}
			dense, err := analyze(WithFFTMode(context.Background(), FFTOff), m, pos, tch, 0)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for j := 0; j <= m.Bits; j++ {
				for k := 0; k <= m.Bits; k++ {
					s, d := structured.Cov.At(j, k), dense.Cov.At(j, k)
					if e := math.Abs(s-d) / math.Abs(d); e > worst {
						worst = e
					}
				}
			}
			if worst > 1e-10 {
				t.Errorf("separable vs dense covariance rel err = %g, want <= 1e-10", worst)
			}
			t.Logf("separable vs dense covariance rel err = %.3g (complete lattice: %v)", worst, lat.complete)
		})
	}
}

// TestRoutedMonteCarloFFTSampleCovariance: the separable spectral
// sampler's empirical covariance must converge to the analytic one on
// a routed layout — the correctness of the per-frequency factorized
// draw, on the geometry cmd/yield actually samples.
func TestRoutedMonteCarloFFTSampleCovariance(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	sh, err := NewSharedContext(context.Background(), m, routedLayout(t, m, tch), tch)
	if err != nil {
		t.Fatal(err)
	}
	a := sh.Analysis(0)
	const samples, seed = 4000, 11
	ctx, tr := tracedCtx(t)
	out, err := sh.MonteCarloRangeContext(ctx, a, 0, samples, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Registry().Snapshot().Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "mc"}); got != 1 {
		t.Fatalf("structured_total{mc} = %d, want 1 (separable sampler did not engage)", got)
	}
	n := m.Bits + 1
	acc := make([]float64, n*n)
	for _, shifts := range out {
		for j := 0; j < n; j++ {
			dj := shifts[j] - a.DCSys(j)
			for k := j; k < n; k++ {
				acc[j*n+k] += dj * (shifts[k] - a.DCSys(k))
			}
		}
	}
	worst := 0.0
	for j := 0; j < n; j++ {
		for k := j; k < n; k++ {
			got := acc[j*n+k] / samples
			want := a.Cov.At(j, k)
			scale := math.Sqrt(a.Cov.At(j, j) * a.Cov.At(k, k))
			if e := math.Abs(got-want) / scale; e > worst {
				worst = e
			}
		}
	}
	if worst > 0.1 {
		t.Errorf("separable-sampler covariance drift = %g, want <= 0.1", worst)
	}
	t.Logf("separable-sampler covariance drift = %.3g over %d samples", worst, samples)
}

// TestSweepAngleZeroAllocs: one angle evaluation against a Shared's
// gradient table performs zero allocations.
func TestSweepAngleZeroAllocs(t *testing.T) {
	m, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	g := gatherCells(m, GridPositioner(tch))
	gg := newGradGeom(g, tch)
	dst := make([]float64, len(g.caps))
	if allocs := testing.AllocsPerRun(100, func() {
		gg.cstarInto(dst, 0.37)
	}); allocs != 0 {
		t.Errorf("cstarInto allocates %v per angle, want 0", allocs)
	}
}

// TestSharedBlocksMatchOneCall pins the block contract behind the job
// tier's coalesced tails and checkpointed block loops: drawing a run as
// blocks of any partition reproduces the one-call draw byte for byte —
// on the spectral path and on the exact FFTOff path — and each Shared
// pays the spectral sampler's set-up once, not once per block.
func TestSharedBlocksMatchOneCall(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	const samples, seed = 64, 9
	for _, tc := range []struct {
		name string
		mode FFTMode
	}{
		{"spectral", FFTAuto},
		{"dense", FFTOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, tr := tracedCtx(t)
			ctx = WithFFTMode(ctx, tc.mode)
			// draw builds a fresh Shared and draws [0, samples) in blocks
			// of the given size.
			draw := func(block int) [][]float64 {
				t.Helper()
				sh, err := NewSharedContext(ctx, m, GridPositioner(tch), tch)
				if err != nil {
					t.Fatal(err)
				}
				a := sh.Analysis(math.Pi / 4)
				var out [][]float64
				for from := 0; from < samples; from += block {
					blk, err := sh.MonteCarloRangeContext(ctx, a, from, min(from+block, samples), seed)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, blk...)
				}
				return out
			}
			want := draw(samples)
			blocks := []int{1, 17, samples - 1}
			for _, block := range blocks {
				got := draw(block)
				if len(got) != len(want) {
					t.Fatalf("block %d: got %d samples, want %d", block, len(got), len(want))
				}
				for s := range want {
					for k := range want[s] {
						if got[s][k] != want[s][k] {
							t.Fatalf("block %d: sample %d bit %d: %v, one call %v", block, s, k, got[s][k], want[s][k])
						}
					}
				}
			}
			structured := tr.Registry().Snapshot().Counter("ccdac_numeric_fft_structured_total", obs.Labels{"path": "mc"})
			shareds := int64(1 + len(blocks))
			switch tc.mode {
			case FFTOff:
				if structured != 0 {
					t.Errorf("structured_total{mc} = %d, want 0 on the dense path", structured)
				}
			default:
				if structured != shareds {
					t.Errorf("structured_total{mc} = %d over %d Shareds, want one set-up per Shared", structured, shareds)
				}
			}
		})
	}
}
