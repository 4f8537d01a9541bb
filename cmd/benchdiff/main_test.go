package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates a bench file and returns its path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBootstrapThenCleanThenRegression(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "BENCH_HISTORY.jsonl")
	bench := write(t, dir, "BENCH_x.json", `{"run_seconds": 1.0, "ops_per_second": 100, "bits": 8}`)

	// First run: no history — record the baseline, exit clean.
	var out, errb bytes.Buffer
	if code := run([]string{"-history", hist, "-update", bench}, &out, &errb); code != 0 {
		t.Fatalf("bootstrap run exit %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "baseline") {
		t.Fatalf("bootstrap output missing baseline note: %s", out.String())
	}

	// Identical data against its own baseline: clean.
	out.Reset()
	if code := run([]string{"-history", hist, bench}, &out, &errb); code != 0 {
		t.Fatalf("identical comparison exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("clean comparison output: %s", out.String())
	}

	// A 12% slowdown at the default 5% tolerance: exit 1, named metric.
	slow := write(t, dir, "BENCH_x.json", `{"run_seconds": 1.12, "ops_per_second": 100, "bits": 8}`)
	out.Reset()
	if code := run([]string{"-history", hist, slow}, &out, &errb); code != 1 {
		t.Fatalf("regression run exit %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "run_seconds") {
		t.Fatalf("regression output does not name the metric: %s", out.String())
	}
}

func TestImprovementStaysClean(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	bench := write(t, dir, "BENCH_y.json", `{"run_seconds": 1.0}`)
	run([]string{"-history", hist, "-update", bench}, &bytes.Buffer{}, &bytes.Buffer{})

	fast := write(t, dir, "BENCH_y.json", `{"run_seconds": 0.5}`)
	var out bytes.Buffer
	if code := run([]string{"-history", hist, fast}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("improvement run exit %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Fatalf("improvement not reported: %s", out.String())
	}
}

func TestMissingMetricFails(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	bench := write(t, dir, "BENCH_z.json", `{"run_seconds": 1.0, "ops_per_second": 50}`)
	run([]string{"-history", hist, "-update", bench}, &bytes.Buffer{}, &bytes.Buffer{})

	dropped := write(t, dir, "BENCH_z.json", `{"run_seconds": 1.0}`)
	var out bytes.Buffer
	if code := run([]string{"-history", hist, dropped}, &out, &bytes.Buffer{}); code != 1 {
		t.Fatalf("missing-metric run exit %d, want 1: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "missing") {
		t.Fatalf("missing metric not reported: %s", out.String())
	}
}

func TestUpdateAcknowledgesRegression(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	bench := write(t, dir, "BENCH_u.json", `{"run_seconds": 1.0}`)
	run([]string{"-history", hist, "-update", bench}, &bytes.Buffer{}, &bytes.Buffer{})

	// Re-baselining over a regression still prints the move but exits 0:
	// -update is the explicit acknowledgment, not a gate.
	slow := write(t, dir, "BENCH_u.json", `{"run_seconds": 2.0}`)
	var out bytes.Buffer
	if code := run([]string{"-history", hist, "-update", slow}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("update-over-regression exit %d, want 0: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Fatalf("acknowledged move not reported: %s", out.String())
	}

	// The append took: the regressed value is now the baseline.
	out.Reset()
	if code := run([]string{"-history", hist, slow}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("post-update comparison exit %d: %s", code, out.String())
	}
}

// historyLines counts the entries in a history file.
func historyLines(t *testing.T, hist string) int {
	t.Helper()
	data, err := os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// TestUpdateAppendsOnlyChangedSuites: -update appends a suite's report
// only when its metrics differ from that suite's latest entry — an
// unchanged suite adds no duplicate line, a changed one adds its new
// report, which then is the baseline.
func TestUpdateAppendsOnlyChangedSuites(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	same := write(t, dir, "BENCH_same.json", `{"run_seconds": 1.0, "ops_per_second": 10}`)
	moved := write(t, dir, "BENCH_moved.json", `{"run_seconds": 2.0}`)
	if code := run([]string{"-history", hist, "-update", same, moved}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("bootstrap exit %d", code)
	}
	if n := historyLines(t, hist); n != 2 {
		t.Fatalf("bootstrap wrote %d history lines, want 2", n)
	}

	// Unchanged: nothing appended, and the run says so.
	var out bytes.Buffer
	if code := run([]string{"-history", hist, "-update", same, moved}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("unchanged update exit %d: %s", code, out.String())
	}
	if n := historyLines(t, hist); n != 2 {
		t.Fatalf("unchanged update grew the history to %d lines, want 2", n)
	}
	if got := strings.Count(out.String(), "not appended"); got != 2 {
		t.Fatalf("unchanged update reported %d suites not appended, want 2:\n%s", got, out.String())
	}

	// One suite changed: exactly its report is appended.
	write(t, dir, "BENCH_moved.json", `{"run_seconds": 1.5}`)
	out.Reset()
	if code := run([]string{"-history", hist, "-update", same, moved}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("changed update exit %d: %s", code, out.String())
	}
	if n := historyLines(t, hist); n != 3 {
		t.Fatalf("changed update left %d history lines, want 3", n)
	}
	if !strings.Contains(out.String(), "same       unchanged") || strings.Contains(out.String(), "moved      unchanged") {
		t.Fatalf("changed update output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-history", hist, "-v", moved}, &out, &bytes.Buffer{}); code != 0 ||
		!strings.Contains(out.String(), "1.5 -> 1.5") {
		t.Fatalf("the changed report is not the new baseline (exit %d):\n%s", code, out.String())
	}
}

func TestSchemaVersionMismatchExits2(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	if err := os.WriteFile(hist,
		[]byte(`{"schema_version":99,"suite":"w","metrics":{"run_seconds":1}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bench := write(t, dir, "BENCH_w.json", `{"run_seconds": 1.0}`)
	var errb bytes.Buffer
	if code := run([]string{"-history", hist, bench}, &bytes.Buffer{}, &errb); code != 2 {
		t.Fatalf("schema mismatch exit %d, want 2: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "schema version") {
		t.Fatalf("schema error not explained: %s", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var errb bytes.Buffer
	if code := run(nil, &bytes.Buffer{}, &errb); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code := run([]string{"-history", "h", "does-not-exist.json"}, &bytes.Buffer{}, &errb); code != 2 {
		t.Fatalf("unreadable-file exit %d, want 2", code)
	}
}

func TestTolerancePermitsTrackedDelta(t *testing.T) {
	dir := t.TempDir()
	hist := filepath.Join(dir, "h.jsonl")
	bench := write(t, dir, "BENCH_t.json", `{"run_seconds": 1.0}`)
	run([]string{"-history", hist, "-update", bench}, &bytes.Buffer{}, &bytes.Buffer{})
	slow := write(t, dir, "BENCH_t.json", `{"run_seconds": 1.12}`)
	if code := run([]string{"-history", hist, "-tolerance", "0.2", slow}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("12%% delta at 20%% tolerance exit %d, want 0", code)
	}
}

func TestSuiteOf(t *testing.T) {
	for file, want := range map[string]string{
		"BENCH_obs.json":        "obs",
		"/x/y/BENCH_serve.json": "serve",
		"custom.json":           "custom",
	} {
		if got := suiteOf(file); got != want {
			t.Errorf("suiteOf(%q) = %q, want %q", file, got, want)
		}
	}
}
