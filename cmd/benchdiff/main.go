// Command benchdiff gates benchmark regressions: it wraps the repo's
// BENCH_*.json files into the canonical benchfmt schema, compares each
// against the latest entry for its suite in the append-only
// BENCH_HISTORY.jsonl trajectory, and fails when a gating metric moved
// the wrong way beyond tolerance or vanished from the harness.
//
// Usage:
//
//	benchdiff -history BENCH_HISTORY.jsonl [-tolerance 0.05] [-update] [-v] BENCH_*.json
//
// The suite name is derived from each file name (BENCH_obs.json →
// obs). A suite with no history yet records a baseline verdict instead
// of failing, so the gate bootstraps itself. With -update, each report
// whose metrics differ from its suite's latest history entry is
// appended to the history after comparison — run it after an
// intentional performance change to move the baseline; the diff is
// still printed, but an acknowledged move never exits 1. A report
// identical to its baseline is not appended again.
//
// Exit codes: 0 clean (always with -update, barring I/O errors), 1
// regression or missing gating metric, 2 usage or schema error.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ccdac/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected, so the golden tests drive the
// real argument parsing and exit-code mapping.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	history := fs.String("history", "BENCH_HISTORY.jsonl", "append-only JSONL benchmark trajectory")
	tolerance := fs.Float64("tolerance", 0.05, "relative change beyond which a gating metric regresses")
	update := fs.Bool("update", false, "append each report to the history after comparing")
	verbose := fs.Bool("v", false, "print every metric, not just the ones that moved")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark files given")
		fs.Usage()
		return 2
	}

	exit := 0
	for _, file := range files {
		suite := suiteOf(file)
		raw, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		cur, err := benchfmt.Wrap(suite, raw)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		base, err := benchfmt.LatestInHistory(*history, suite)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		if base == nil {
			fmt.Fprintf(stdout, "%-10s baseline (no history; %d metrics)\n", suite, len(cur.Metrics))
		} else {
			res, err := benchfmt.Diff(base, cur, benchfmt.DiffOptions{Tolerance: *tolerance})
			if err != nil {
				fmt.Fprintf(stderr, "benchdiff: %v\n", err)
				return 2
			}
			printResult(stdout, res, *verbose)
			// -update is the explicit act of moving the baseline: the
			// diff is still printed so the operator sees what moved, but
			// an acknowledged move is not a gate failure.
			if !res.OK() && !*update {
				exit = 1
			}
		}
		if *update && base != nil && maps.Equal(base.Metrics, cur.Metrics) {
			fmt.Fprintf(stdout, "%-10s unchanged since its latest history entry; not appended\n", suite)
		} else if *update {
			cur.UnixTime = time.Now().Unix()
			cur.GoVersion = runtime.Version()
			if err := benchfmt.AppendHistory(*history, cur); err != nil {
				fmt.Fprintf(stderr, "benchdiff: %v\n", err)
				return 2
			}
		}
	}
	return exit
}

// suiteOf maps BENCH_obs.json to "obs"; any other name is used whole
// (minus extension).
func suiteOf(file string) string {
	base := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
	return strings.TrimPrefix(base, "BENCH_")
}

func printResult(w io.Writer, res *benchfmt.DiffResult, verbose bool) {
	status := "ok"
	if !res.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%-10s %s  (%d regressed, %d improved, %d missing; tolerance %.0f%%)\n",
		res.Suite, status, res.Regressions, res.Improvements, res.Missing, res.Tolerance*100)
	for _, m := range res.Metrics {
		show := verbose
		switch m.Verdict {
		case benchfmt.VerdictRegressed, benchfmt.VerdictMissing:
			show = true
		case benchfmt.VerdictImproved:
			show = true
		}
		if !show {
			continue
		}
		switch m.Verdict {
		case benchfmt.VerdictMissing:
			fmt.Fprintf(w, "  %-9s %s (was %g)\n", m.Verdict, m.Name, m.Old)
		case benchfmt.VerdictNew:
			fmt.Fprintf(w, "  %-9s %s = %g\n", m.Verdict, m.Name, m.New)
		default:
			unit := "%"
			chg := m.Change * 100
			if m.Absolute {
				unit = " abs"
				chg = m.Change
			}
			fmt.Fprintf(w, "  %-9s %s: %g -> %g (%+.2f%s, %s-better)\n",
				m.Verdict, m.Name, m.Old, m.New, chg, unit, m.Direction)
		}
	}
}
