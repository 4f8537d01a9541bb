// Command perfbench is the repository's end-to-end benchmark: one
// command, three workloads, one JSON result line.
//
//	bash perfbench/run.sh --workload flow --seed 1 --seconds 30 --trace 0
//
// run.sh builds this module and cmd/ccdacd into .bench_build and execs
// the binary from the checkout root; the binary reads BENCHMARK.json
// there for the metric names and units it must report.
//
// Workloads (each file's header says why it exists, which layers it
// loads, and which end-to-end metric each layer metric should move):
//
//   - flow  (flow.go): in-process ccdac.Generate, closed loop.
//   - serve (serve.go): a ccdacd daemon driven over loopback, open loop.
//   - mc    (mc.go): in-process yield.EstimateContext sign-off passes.
//
// With --trace 0 a run reports the end-to-end metrics, measured with
// no instrumentation beyond the benchmark's own clock. With --trace 1
// it reports the per-layer ledger instead: the benchmark replays each
// operation through the layers' public functions and times its own
// calls, adding no spans inside the program. A layer a workload does
// not load reports 0.
//
// Every run checks its outputs against reference.json (regenerate with
// --write-reference) and against in-process runs; a failed check counts
// in "failed" and makes the run exit 1 with "correct": false.
//
// Seeds: the default seed is 1; seed 7919 is held out for claims. The
// seed derives every generated input (flow order, serve hot set,
// prefix variants, arrival schedule and job seeds, mc case order); the
// program sees only the generated inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed   = 1
	benchmarkDoc  = "BENCHMARK.json"
	referenceFile = "perfbench/reference.json"
	// setupReps is how many times each workload repeats its set-up;
	// setup_s is the median.
	setupReps = 5
)

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// options is one invocation's configuration.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	ccdacd  string
	ref     *reference
}

// outcome is one workload run: the operations attempted and failed,
// the reasons for failures, and the metrics it measured. Workloads
// fill e2e on untraced runs and layer on traced runs.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: flow, serve or mc")
	seed := flag.Int64("seed", defaultSeed, "workload seed; derives every generated input")
	seconds := flag.Float64("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a replayed, self-timed run")
	ccdacd := flag.String("ccdacd", ".bench_build/ccdacd", "daemon binary for the serve workload")
	writeRef := flag.Bool("write-reference", false, "recompute "+referenceFile+" and exit")
	flag.Parse()

	if *writeRef {
		if err := writeReference(referenceFile); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	sp, err := loadSpec(benchmarkDoc)
	if err != nil {
		fatal(err)
	}
	ref, err := loadReference(referenceFile)
	if err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, ccdacd: *ccdacd, ref: ref}

	var out *outcome
	switch *workload {
	case "flow":
		out, err = runFlow(o)
	case "serve":
		out, err = runServe(o)
	case "mc":
		out, err = runMC(o)
	default:
		err = fmt.Errorf("unknown --workload %q (want flow, serve or mc)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	line, err := report(sp, out, o.trace)
	if err != nil {
		fatal(err)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

// report turns a workload's measurements into the result line. The
// declared metric list is authoritative: an end-to-end metric the
// workload did not measure is an error, a per-layer metric of a layer
// the workload does not load reports 0, and a measured name that is
// not declared is an error (the declaration and the code drifted).
func report(sp *spec, out *outcome, traced bool) (*resultLine, error) {
	decls, got := sp.EndToEnd, out.e2e
	if traced {
		decls, got = sp.PerLayer, out.layer
	}
	line := &resultLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(decls)),
	}
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := got[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is %v", d.Name, v)
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from %s: %s", benchmarkDoc, strings.Join(extra, ", "))
	}
	return line, nil
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (numpy's default); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetup runs one workload set-up setupReps times, each from a
// collected heap, and returns the median wall time in seconds.
func timeSetup(prep func() error) (float64, error) {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := prep(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

// relClose reports whether a and b agree within rel relative tolerance.
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// countDense counts the dense-covariance fallbacks among degradation
// warnings (Result, Analysis and Shared warnings share the wording).
func countDense(warnings []string) int {
	n := 0
	for _, w := range warnings {
		if strings.Contains(w, "dense fallback") {
			n++
		}
	}
	return n
}
