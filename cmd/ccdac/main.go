// Command ccdac runs the full constructive common-centroid flow for
// one capacitor array and reports its metrics, optionally writing SVG
// views of the placement and the routed layout.
//
// Usage:
//
//	ccdac -bits 8 -style spiral -parallel 2 -svg layout.svg [-json]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"ccdac"
	"ccdac/internal/obs"
	"ccdac/internal/store"
)

func main() {
	bits := flag.Int("bits", 8, "DAC resolution N (2..12)")
	style := flag.String("style", "spiral", "placement style: spiral, chessboard, block-chessboard, annealed, best-bc")
	parallel := flag.Int("parallel", 2, "parallel wires applied iteratively to critical bits (<=1 disables)")
	coreBits := flag.Int("core", 0, "block-chessboard core bits (0 = default)")
	blockCells := flag.Int("block", 0, "block-chessboard block granularity (0 = default)")
	theta := flag.Int("theta", 8, "gradient angles for worst-case INL/DNL")
	skipNL := flag.Bool("fast", false, "skip the INL/DNL analysis")
	workers := flag.Int("workers", 0, "analysis worker budget (0 = GOMAXPROCS, negative = serial)")
	svgOut := flag.String("svg", "", "write the routed layout SVG to this file")
	placeOut := flag.String("placement-svg", "", "write the placement SVG to this file")
	gdsOut := flag.String("gds", "", "write the layout as a GDSII stream to this file")
	spiceOut := flag.String("spice", "", "write the critical bit's RC netlist (SPICE) to this file")
	runDRC := flag.Bool("drc", false, "run the design-rule checker and report violations")
	reportOut := flag.String("report", "", "write a self-contained HTML design report to this file")
	traceOut := flag.String("trace", "", "record an observability trace and write its spans as JSONL to this file")
	otlpOut := flag.String("trace-otlp", "", "record an observability trace and write it as OTLP/JSON to this file (importable into Jaeger/Tempo)")
	metricsOut := flag.String("metrics", "", "record run metrics and write them in Prometheus text format to this file")
	traceMem := flag.Bool("trace-mem", false, "with -trace/-metrics, also record per-span heap-allocation deltas (slower)")
	asJSON := flag.Bool("json", false, "emit metrics as JSON")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("ccdac", ccdac.Version)
		return
	}

	cfg := ccdac.Config{
		Bits:             *bits,
		Style:            ccdac.Style(*style),
		CoreBits:         *coreBits,
		BlockCells:       *blockCells,
		MaxParallel:      *parallel,
		ThetaSteps:       *theta,
		SkipNonlinearity: *skipNL,
		Workers:          *workers,
		Trace:            *traceOut != "" || *otlpOut != "" || *metricsOut != "",
		TraceMemStats:    *traceMem,
	}
	var res *ccdac.Result
	var err error
	if *style == "best-bc" {
		cfg.Style = ccdac.BlockChessboard
		res, _, err = ccdac.GenerateBestBC(cfg)
	} else {
		res, err = ccdac.Generate(cfg)
	}
	if err != nil {
		// Warnings accumulated before the failure still matter for
		// diagnosing it (a retried parallel-wire promotion before a
		// routing abort, say).
		var pe *ccdac.PipelineError
		if errors.As(err, &pe) {
			for _, w := range pe.Warnings {
				fmt.Fprintln(os.Stderr, "ccdac: warning:", w)
			}
		}
		// PipelineError values already carry the "ccdac:" prefix.
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, ccdac.ErrConfig) {
			fmt.Fprintln(os.Stderr, "ccdac: run with -h for flag documentation")
			os.Exit(2)
		}
		os.Exit(1)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "ccdac: warning:", w)
	}
	if res.Trace != nil {
		writeTraceFiles(res.Trace, *traceOut, *otlpOut, *metricsOut)
		// Keep stdout parseable under -json: the stage tree goes to
		// stderr there, stdout otherwise.
		if *asJSON {
			fmt.Fprint(os.Stderr, res.Trace.StageTree())
		} else {
			fmt.Print(res.Trace.StageTree())
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	} else {
		m := res.Metrics
		fmt.Printf("%d-bit %s array\n", *bits, res.Config.Style)
		fmt.Printf("  area          %.0f um^2\n", m.AreaUm2)
		fmt.Printf("  f3dB          %.1f MHz (critical bit C_%d, tau %.3g s)\n",
			m.F3dBHz/1e6, m.CriticalBit, m.TauSec)
		if !*skipNL {
			fmt.Printf("  |DNL|, |INL|  %.3f, %.3f LSB\n", m.MaxAbsDNL, m.MaxAbsINL)
		}
		fmt.Printf("  sum C_TS      %.3f fF\n", m.CTSfF)
		fmt.Printf("  sum C_wire    %.1f fF\n", m.CWirefF)
		fmt.Printf("  sum C_BB      %.1f fF\n", m.CBBfF)
		fmt.Printf("  vias, length  %d cuts, %.0f um\n", m.ViaCuts, m.WirelengthUm)
		fmt.Printf("  R_V, R_total  %.3f, %.3f kOhm (critical bit)\n", m.RVkOhm, m.RTotalkOhm)
		fmt.Printf("  parallel      %v\n", m.ParallelWires)
		fmt.Printf("  place+route   %.4fs + %.4fs\n", m.PlaceSeconds, m.RouteSeconds)
	}

	if *placeOut != "" {
		title := fmt.Sprintf("%d-bit %s placement", *bits, res.Config.Style)
		if err := store.AtomicWriteFile(*placeOut, []byte(res.SVGPlacement(title)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if *svgOut != "" {
		title := fmt.Sprintf("%d-bit %s routed layout", *bits, res.Config.Style)
		if err := store.AtomicWriteFile(*svgOut, []byte(res.SVGLayout(title)), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if *gdsOut != "" {
		data, err := res.GDS(fmt.Sprintf("ccdac_%dbit_%s", *bits, *style))
		if err == nil {
			err = store.AtomicWriteFile(*gdsOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if *spiceOut != "" {
		nl, err := res.SpiceNetlist(-1)
		if err == nil {
			err = store.AtomicWriteFile(*spiceOut, []byte(nl), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if *reportOut != "" {
		html, err := res.HTMLReport()
		if err == nil {
			err = store.AtomicWriteFile(*reportOut, []byte(html), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if *runDRC {
		violations := res.DRC()
		if len(violations) == 0 {
			fmt.Println("DRC: clean")
		} else {
			fmt.Printf("DRC: %d violations\n", len(violations))
			for _, v := range violations {
				fmt.Println(" ", v)
			}
			os.Exit(2)
		}
	}
}

// writeTraceFiles dumps the run's trace spans (JSONL and/or OTLP/JSON)
// and metrics (Prometheus text format) to the requested files. Output
// is rendered in memory and written atomically (temp + fsync + rename
// with Close checked), so a full disk or a crash mid-write surfaces as
// an error instead of a silently truncated file.
func writeTraceFiles(tr *ccdac.Trace, traceOut, otlpOut, metricsOut string) {
	if traceOut != "" {
		var buf bytes.Buffer
		err := tr.WriteJSONL(&buf)
		if err == nil {
			err = store.AtomicWriteFile(traceOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if otlpOut != "" {
		var buf bytes.Buffer
		err := tr.WriteOTLP(&buf, "ccdac")
		if err == nil {
			err = store.AtomicWriteFile(otlpOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
	if metricsOut != "" {
		// Fold the run's snapshot into a process-level registry — the
		// same Merge path the serve daemon uses — so the exposition is
		// the aggregated process view, not a bare per-trace dump.
		proc := obs.NewRegistry()
		proc.Merge(tr.MetricsSnapshot())
		var buf bytes.Buffer
		err := obs.WritePrometheus(&buf, proc.Snapshot())
		if err == nil {
			err = store.AtomicWriteFile(metricsOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccdac:", err)
			os.Exit(1)
		}
	}
}
