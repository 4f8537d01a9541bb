// Benchmarks regenerating each of the paper's tables and figures (one
// benchmark per artifact), plus micro-benchmarks of the flow stages.
// The printed rows of the actual tables come from cmd/tables and
// cmd/figures; these benchmarks measure the cost of regenerating them.
package ccdac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"ccdac"
	"ccdac/internal/ccmatrix"
	"ccdac/internal/core"
	"ccdac/internal/dacmodel"
	"ccdac/internal/dacsim"
	"ccdac/internal/drc"
	"ccdac/internal/exp"
	"ccdac/internal/extract"
	"ccdac/internal/gds"
	"ccdac/internal/obs"
	"ccdac/internal/obs/profcap"
	"ccdac/internal/paperdata"
	"ccdac/internal/place"
	"ccdac/internal/render"
	"ccdac/internal/report"
	"ccdac/internal/route"
	"ccdac/internal/sar"
	"ccdac/internal/spice"
	"ccdac/internal/sweep"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

// BenchmarkTableI regenerates Table I (electrical metrics, all four
// methods) at 6 bits per iteration.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exp.NewHarness()
		h.AnnealMoves = 2000
		if _, err := h.TableI([]int{6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates Table II (area, INL/DNL, f3dB).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exp.NewHarness()
		h.AnnealMoves = 2000
		if _, err := h.TableII([]int{6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIII measures the constructive place+route runtimes the
// paper's Table III reports, per bit count and style.
func BenchmarkTableIII(b *testing.B) {
	t := tech.FinFET12()
	for _, bits := range []int{6, 7, 8, 9, 10} {
		b.Run(fmt.Sprintf("spiral/N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := place.NewSpiral(bits)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := route.Route(m, t, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("bc/N%d", bits), func(b *testing.B) {
			params := place.DefaultBCParams(bits)[0]
			for i := 0; i < b.N; i++ {
				m, err := place.NewBlockChessboard(bits, params)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := route.Route(m, t, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2 regenerates the four 6-bit placement views of Fig. 2.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m1, err := place.NewSpiral(6)
		if err != nil {
			b.Fatal(err)
		}
		m2, err := place.NewChessboard(6)
		if err != nil {
			b.Fatal(err)
		}
		m3, err := place.NewBlockChessboard(6, place.BCParams{CoreBits: 4, BlockCells: 4})
		if err != nil {
			b.Fatal(err)
		}
		m4, err := place.NewBlockChessboard(6, place.BCParams{CoreBits: 4, BlockCells: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = render.SVGPlacement(m1, "a")
		_ = render.SVGPlacement(m2, "b")
		_ = render.SVGPlacement(m3, "c")
		_ = render.SVGPlacement(m4, "d")
	}
}

// BenchmarkFig3 regenerates the routed 6-bit spiral of Fig. 3 with
// parallel wires on the MSB.
func BenchmarkFig3(b *testing.B) {
	t := tech.FinFET12()
	par := []int{1, 1, 1, 1, 1, 1, 2}
	for i := 0; i < b.N; i++ {
		m, err := place.NewSpiral(6)
		if err != nil {
			b.Fatal(err)
		}
		l, err := route.Route(m, t, par)
		if err != nil {
			b.Fatal(err)
		}
		_ = render.SVGLayout(l, "fig3")
		_ = render.GroupsSummary(l)
	}
}

// BenchmarkFig4 regenerates the 8-bit block-chessboard granularity
// strip of Fig. 4.
func BenchmarkFig4(b *testing.B) {
	params := place.DefaultBCParams(8)
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			m, err := place.NewBlockChessboard(8, p)
			if err != nil {
				b.Fatal(err)
			}
			_ = render.SVGPlacement(m, "fig4")
		}
	}
}

// BenchmarkFig5 regenerates the routed 8-bit chessboard-vs-spiral
// comparison of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	t := tech.FinFET12()
	for i := 0; i < b.N; i++ {
		cb, err := place.NewChessboard(8)
		if err != nil {
			b.Fatal(err)
		}
		lcb, err := route.Route(cb, t, nil)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := place.NewSpiral(8)
		if err != nil {
			b.Fatal(err)
		}
		lsp, err := route.Route(sp, t, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = render.SVGLayout(lcb, "5a")
		_ = render.SVGLayout(lsp, "5b")
	}
}

// BenchmarkFig6a regenerates the spiral parallel-wire improvement
// factors of Fig. 6(a) at 6 bits.
func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exp.NewHarness()
		if _, err := h.Fig6a([]int{6}, []int{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6b regenerates the per-method normalized f3dB series of
// Fig. 6(b) at 6 bits.
func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := exp.NewHarness()
		if _, err := h.Fig6b(6, []int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Flow-stage micro-benchmarks ---

func BenchmarkPlaceSpiral(b *testing.B) {
	for _, bits := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := place.NewSpiral(bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlaceChessboard(b *testing.B) {
	for _, bits := range []int{6, 8, 10} {
		b.Run(fmt.Sprintf("N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := place.NewChessboard(bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlaceAnnealed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := place.NewAnnealed(6, place.AnnealConfig{Seed: 1, Moves: 5000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteByStyle(b *testing.B) {
	t := tech.FinFET12()
	for _, bits := range []int{6, 8, 10} {
		sp, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		cb, err := place.NewChessboard(bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("spiral/N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := route.Route(sp, t, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("chessboard/N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := route.Route(cb, t, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExtract(b *testing.B) {
	t := tech.FinFET12()
	for _, bits := range []int{6, 8, 10} {
		m, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		l, err := route.Route(m, t, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := extract.Extract(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCovariance(b *testing.B) {
	t := tech.FinFET12()
	for _, bits := range []int{6, 8} {
		m, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		pos := variation.GridPositioner(t)
		b.Run(fmt.Sprintf("N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analyze(context.Background(), m, pos, t, math.Pi/4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNonlinearity(b *testing.B) {
	t := tech.FinFET12()
	for _, bits := range []int{6, 8, 10} {
		m, err := place.NewSpiral(bits)
		if err != nil {
			b.Fatal(err)
		}
		a, err := analyze(context.Background(), m, variation.GridPositioner(t), t, math.Pi/4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dacmodel.Nonlinearity(a, dacmodel.Parasitics{}, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullFlowFacade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ccdac.Generate(ccdac.Config{Bits: 6, MaxParallel: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RunBestBC(core.Config{Bits: 6, MaxParallel: 2, SkipNL: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo times one sample block per sampler: the 2-D
// spectral sampler on the 6-bit placement grid, and the exact
// capacitor-level sampler (FFTOff) on the routed 11-bit spiral, whose
// dummy cells would send an auto run there too.
func BenchmarkMonteCarlo(b *testing.B) {
	t := tech.FinFET12()
	m6, err := place.NewSpiral(6)
	if err != nil {
		b.Fatal(err)
	}
	m11, err := place.NewSpiral(11)
	if err != nil {
		b.Fatal(err)
	}
	l11, err := route.Route(m11, t, nil)
	if err != nil {
		b.Fatal(err)
	}
	off := variation.WithFFTMode(context.Background(), variation.FFTOff)
	for _, c := range []struct {
		name    string
		ctx     context.Context
		m       *ccmatrix.Matrix
		pos     variation.Positioner
		samples int
	}{
		{"grid6", context.Background(), m6, variation.GridPositioner(t), 10},
		{"routed11-fftoff", off, m11, l11.CellCenter, 100},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sh, err := variation.NewSharedContext(c.ctx, c.m, c.pos, t)
				if err != nil {
					b.Fatal(err)
				}
				a := sh.Analysis(0)
				b.StartTimer()
				if _, err := sh.MonteCarloRangeContext(c.ctx, a, 0, c.samples, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Extension-system benchmarks ---

func BenchmarkDRC(b *testing.B) {
	m, err := place.NewSpiral(8)
	if err != nil {
		b.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := drc.Check(l); !res.Clean() {
			b.Fatal("unexpected violations")
		}
	}
}

func BenchmarkGDSEncode(b *testing.B) {
	m, err := place.NewSpiral(8)
	if err != nil {
		b.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := gds.FromLayout(l, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := lib.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpiceTransient(b *testing.B) {
	m, err := place.NewSpiral(6)
	if err != nil {
		b.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := extract.Extract(l)
	if err != nil {
		b.Fatal(err)
	}
	crit := sum.Bits[sum.CriticalBit()]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spice.Transient(crit.Net, crit.Root, crit.TauSec/20, 200, crit.CellNodes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSARConversion(b *testing.B) {
	adc, err := sar.NewIdeal(10, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = adc.Convert(float64(i%1000) / 1000)
	}
}

func BenchmarkSARSNDR(b *testing.B) {
	adc, err := sar.NewIdeal(8, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = adc.SNDR(1024)
	}
}

func BenchmarkYieldEstimate(b *testing.B) {
	t := tech.FinFET12()
	m, err := place.NewSpiral(6)
	if err != nil {
		b.Fatal(err)
	}
	pos := variation.GridPositioner(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := yield.EstimateContext(context.Background(), m, pos, t, math.Pi/4,
			yield.Spec{MaxAbsDNL: 0.01, MaxAbsINL: 0.01}, dacmodel.Parasitics{}, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sweep.BCAblation(6, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceRandomSymmetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := place.NewRandomSymmetric(8, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDACGlitchScan(b *testing.B) {
	m, err := place.NewSpiral(6)
	if err != nil {
		b.Fatal(err)
	}
	l, err := route.Route(m, tech.FinFET12(), nil)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := extract.Extract(l)
	if err != nil {
		b.Fatal(err)
	}
	model, err := dacsim.FromExtract(sum, ccmatrix.UnitCounts(6), 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.WorstGlitch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHTMLReport(b *testing.B) {
	r, err := core.Run(core.Config{Bits: 6, Style: place.Spiral, SkipNL: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := report.Write(&buf, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPaperComparison(b *testing.B) {
	// Spearman scoring itself (measured cells reuse the paper data).
	measured := map[string]paperdata.Cell{}
	for _, c := range paperdata.Cells() {
		measured[paperdata.Key(c.Bits, c.Method)] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = paperdata.Compare(measured)
	}
}

func BenchmarkLineChart(b *testing.B) {
	series := []render.Series{
		{Name: "a", X: []float64{1, 2, 3, 4, 5, 6}, Y: []float64{1, 2, 3, 3.5, 4, 4.5}},
		{Name: "b", X: []float64{1, 2, 3, 4, 5, 6}, Y: []float64{1, 1.5, 1.7, 1.8, 1.9, 2}},
	}
	for i := 0; i < b.N; i++ {
		_ = render.LineChart(series, render.ChartOptions{Title: "bench"})
	}
}

// runRecorded executes one generation with the full live-telemetry
// pipeline armed the way the serve daemon arms it: a context-attached
// trace publishing span events to a bus with one draining subscriber,
// and the finished trace offered to a flight recorder.
func runRecorded(tb testing.TB, cfg ccdac.Config, bus *obs.Bus, rec *obs.Recorder) time.Duration {
	tb.Helper()
	tr := obs.New(obs.Options{PprofLabels: true})
	tr.AttachBus(bus)
	ctx := obs.WithTrace(context.Background(), tr)
	start := time.Now()
	ctx, root := obs.StartSpan(ctx, "bench.generate")
	_, err := ccdac.GenerateContext(ctx, cfg)
	root.End()
	d := time.Since(start)
	tr.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	rec.Offer(obs.RecordedTrace{
		ID: tr.ID(), Name: "bench.generate",
		Start: start, Duration: d, Spans: tr.Spans(),
	})
	return d
}

// drainingBus returns a bus with one subscriber that consumes every
// event, plus a stop func that closes the subscriber and waits for the
// drain goroutine.
func drainingBus() (*obs.Bus, *obs.Recorder, func()) {
	bus := obs.NewBus()
	rec := obs.NewRecorder(obs.RecorderOptions{})
	sub := bus.Subscribe("", 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range sub.Events() {
		}
	}()
	return bus, rec, func() {
		sub.Close()
		<-done
	}
}

// BenchmarkTraceOverhead compares the full flow with tracing disabled,
// enabled, and with the whole live-telemetry pipeline on (span event
// bus with an active subscriber + flight recorder); the disabled case
// is the cost every untraced run pays for the instrumentation sites
// (one atomic load each).
func BenchmarkTraceOverhead(b *testing.B) {
	for _, mode := range []struct {
		name  string
		trace bool
	}{{"disabled", false}, {"traced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := ccdac.Config{Bits: 8, MaxParallel: 2, SkipNonlinearity: true, Trace: mode.trace}
			for i := 0; i < b.N; i++ {
				if _, err := ccdac.Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("recorder", func(b *testing.B) {
		cfg := ccdac.Config{Bits: 8, MaxParallel: 2, SkipNonlinearity: true}
		bus, rec, stop := drainingBus()
		defer stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runRecorded(b, cfg, bus, rec)
		}
	})
}

// TestBenchObs is the harness behind `make bench`: gated on
// BENCH_OBS_OUT, it times the full flow with tracing off and on (best
// of twenty), aggregates per-stage wall time from the trace, and writes
// the report as JSON to the named file.
func TestBenchObs(t *testing.T) {
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		t.Skip("set BENCH_OBS_OUT=<file> to write the observability benchmark report")
	}
	cfg := ccdac.Config{Bits: 8, MaxParallel: 2}
	// Best-of-N per mode: N high enough that the best run reflects the
	// mode's floor, not scheduler luck, on shared CI machines.
	const benchReps = 20
	run := func(trace bool) (time.Duration, *ccdac.Trace) {
		c := cfg
		c.Trace = trace
		best := time.Duration(math.MaxInt64)
		var tr *ccdac.Trace
		for i := 0; i < benchReps; i++ {
			start := time.Now()
			res, err := ccdac.Generate(c)
			d := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if d < best {
				best = d
			}
			if res.Trace != nil {
				tr = res.Trace
			}
		}
		return best, tr
	}
	plain, _ := run(false)
	traced, tr := run(true)

	// Recorder-on vs profcap-armed, interleaved rep for rep so both
	// modes face the same machine conditions. Recorder-on is the serve
	// daemon's steady state — armed trace, span event bus with a live
	// subscriber, flight recorder offer per run. The armed mode adds a
	// trigger consult per run against a capturer sitting in its
	// cooldown — the daemon's steady state between captures; the
	// trigger must cost two atomic loads, not a profile window.
	capt := profcap.New(profcap.Options{Window: time.Millisecond, Cooldown: time.Hour})
	warmed := make(chan profcap.Capture, 1)
	capt.Trigger("warm", "bench", func(c profcap.Capture) { warmed <- c })
	<-warmed // burn the one affordable capture; the cooldown now holds
	bus, rec, stop := drainingBus()
	recorded := time.Duration(math.MaxInt64)
	armed := time.Duration(math.MaxInt64)
	for i := 0; i < benchReps; i++ {
		if d := runRecorded(t, cfg, bus, rec); d < recorded {
			recorded = d
		}
		d := runRecorded(t, cfg, bus, rec)
		capt.Trigger("slow", "bench", nil)
		if d < armed {
			armed = d
		}
	}
	stop()
	if st := capt.Stats(); st.Captured != 1 || st.SuppressedCooldown != benchReps {
		t.Fatalf("profcap not idle during armed run: %+v", st)
	}

	stages := map[string]float64{}
	for _, s := range tr.Spans() {
		stages[s.Name] += s.Duration.Seconds()
	}
	report := struct {
		Bits                    int                `json:"bits"`
		PlainSeconds            float64            `json:"plain_seconds"`
		TracedSeconds           float64            `json:"traced_seconds"`
		OverheadPercent         float64            `json:"overhead_percent"`
		RecorderSeconds         float64            `json:"recorder_seconds"`
		RecorderOverheadPercent float64            `json:"recorder_overhead_percent"`
		ProfcapArmedSeconds     float64            `json:"profcap_armed_seconds"`
		ProfcapOverheadPercent  float64            `json:"profcap_overhead_percent"`
		StageSeconds            map[string]float64 `json:"stage_seconds"`
	}{
		Bits:                    cfg.Bits,
		PlainSeconds:            plain.Seconds(),
		TracedSeconds:           traced.Seconds(),
		OverheadPercent:         100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(),
		RecorderSeconds:         recorded.Seconds(),
		RecorderOverheadPercent: 100 * (recorded.Seconds() - plain.Seconds()) / plain.Seconds(),
		ProfcapArmedSeconds:     armed.Seconds(),
		// Profcap's marginal cost over the recorder steady state it
		// rides on (the trigger consult is the only addition).
		ProfcapOverheadPercent: 100 * (armed.Seconds() - recorded.Seconds()) / recorded.Seconds(),
		StageSeconds:           stages,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("plain %v, traced %v (%.2f%% overhead), recorder-on %v (%.2f%%), profcap-armed %v (%.2f%%) -> %s",
		plain, traced, report.OverheadPercent, recorded, report.RecorderOverheadPercent,
		armed, report.ProfcapOverheadPercent, out)
}
