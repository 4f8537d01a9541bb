// Package numeric is the numeric-health watchdog: a rolling background
// check that the process's numerical kernels still produce what they
// produced when they were verified. The linalg kernels are hand-rolled
// (no external BLAS), the rho correlation table is a process-wide memo,
// and the caching tiers replay stored results — so a silent corruption
// in any of them (a bad cache entry, a corrupt store revive, an
// ill-conditioned input pushing a kernel past its accuracy)
// would flow straight into reported yields without tripping any error
// path. The watchdog runs small golden-reference problems with known
// exact answers on a fixed cadence and surfaces the measured drift in
// /healthz and the ccdac_numeric_* metrics, turning "the math is still
// right" from an assumption into a monitored signal.
//
// Each Check solves a problem whose exact answer is known analytically
// and reports a normalized drift (relative error against the golden
// answer). Drift within tolerance is healthy; drift beyond it marks
// the check — and the numeric section of /healthz — unhealthy. Checks
// are deliberately tiny (n ≤ 32, microseconds each) so the cadence can
// be aggressive without showing up in serving latency.
package numeric

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Check is one golden-reference drift probe.
type Check struct {
	// Name identifies the check in /healthz and metrics.
	Name string
	// Tol is the drift threshold above which the check is unhealthy;
	// 0 selects DefaultTol.
	Tol float64
	// Run solves the golden problem and returns the normalized drift
	// from the exact answer (0 = bit-perfect). An error marks the check
	// unhealthy regardless of drift.
	Run func() (drift float64, err error)
}

// DefaultTol is the drift threshold used by checks that do not set
// their own: loose enough for honest float64 round-off on the golden
// problems, tight enough that any structural corruption (a wrong
// cache entry, a broken kernel) lands orders of magnitude above it.
const DefaultTol = 1e-8

// Result is the outcome of one check run, shaped for the /healthz
// numeric section.
type Result struct {
	Name  string  `json:"name"`
	Drift float64 `json:"drift"`
	Tol   float64 `json:"tol"`
	OK    bool    `json:"ok"`
	Err   string  `json:"error,omitempty"`
}

// Stats is a watchdog's lifetime accounting.
type Stats struct {
	// Runs counts completed sweeps over all checks; Failures counts
	// individual check runs that were unhealthy (drift over tolerance
	// or an error).
	Runs, Failures int64
}

// Watchdog owns a set of checks and re-runs them on a cadence.
type Watchdog struct {
	checks   []Check
	interval time.Duration

	mu      sync.Mutex
	last    []Result
	lastRun time.Time

	runs, failures atomic.Int64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New returns a watchdog over the given checks running every interval
// (0 selects one minute). It is idle until Start.
func New(interval time.Duration, checks ...Check) *Watchdog {
	if interval <= 0 {
		interval = time.Minute
	}
	return &Watchdog{
		checks:   checks,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start runs one sweep immediately (so /healthz has data before the
// first tick) and then re-runs on the configured cadence until Stop.
// Subsequent Start calls are no-ops.
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		w.RunOnce()
		go func() {
			defer close(w.done)
			t := time.NewTicker(w.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					w.RunOnce()
				case <-w.stop:
					return
				}
			}
		}()
	})
}

// Stop halts the cadence loop and waits for it to exit. Safe to call
// without Start and safe to call twice.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	w.mu.Unlock()
	w.startOnce.Do(func() { close(w.done) }) // never started: unblock done
	<-w.done
}

// RunOnce sweeps every check now and returns the results (also stored
// for Snapshot). Safe for concurrent use.
func (w *Watchdog) RunOnce() []Result {
	out := make([]Result, 0, len(w.checks))
	for _, c := range w.checks {
		out = append(out, runCheck(c))
	}
	w.runs.Add(1)
	for _, r := range out {
		if !r.OK {
			w.failures.Add(1)
		}
	}
	w.mu.Lock()
	w.last = out
	w.lastRun = time.Now()
	w.mu.Unlock()
	return out
}

func runCheck(c Check) Result {
	tol := c.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	r := Result{Name: c.Name, Tol: tol}
	drift, err := func() (d float64, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("numeric: check %s panicked: %v", c.Name, p)
			}
		}()
		return c.Run()
	}()
	r.Drift = drift
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.OK = !math.IsNaN(drift) && drift <= tol
	return r
}

// Healthy reports whether every check in the most recent sweep passed
// (vacuously true before the first sweep).
func (w *Watchdog) Healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range w.last {
		if !r.OK {
			return false
		}
	}
	return true
}

// Snapshot returns the most recent sweep's results and when it ran
// (zero time before the first sweep).
func (w *Watchdog) Snapshot() ([]Result, time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Result(nil), w.last...), w.lastRun
}

// Stats returns the watchdog's counters.
func (w *Watchdog) Stats() Stats {
	return Stats{Runs: w.runs.Load(), Failures: w.failures.Load()}
}
