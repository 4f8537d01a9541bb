// Package fault provides deterministic, test-only fault-injection
// points for the constructive flow. Pipeline stages call Check (or
// CheckErr) at their entry; tests arm a stage's nth pass to return an
// error or panic, exercising failure paths that are otherwise
// unreachable from valid inputs: placement/routing/extraction errors,
// CG non-convergence, analysis failures, and worker panics.
//
// The registry is process-global and guarded by a single armed flag so
// the production fast path is one atomic load. Tests that arm faults
// must not run in parallel with each other and should defer Reset().
//
// Fired reports whether an armed point triggered, so fault-injection
// tests can assert both that the fault fired and — via the span
// records of a live trace — that the failing pipeline stage's span was
// marked errored.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Canonical stage names. Pipeline packages use these when calling
// Check; they also label core.StageError and the public error taxonomy.
const (
	// StageConfig is configuration validation (ccdac.Generate entry).
	StageConfig = "config"
	// StagePlace is placement construction (internal/place).
	StagePlace = "placement"
	// StageRoute is constructive routing (internal/route).
	StageRoute = "routing"
	// StageExtract is parasitic extraction (internal/extract).
	StageExtract = "extraction"
	// StageAnalyze is the variation/nonlinearity analysis (core).
	StageAnalyze = "analysis"
	// StageLinalgCG is the sparse CG solve (internal/linalg.SolveCG).
	StageLinalgCG = "linalg.cg"
	// StageFFT is the structured-covariance FFT path selection in
	// internal/variation: an armed fault forces the dense fallback,
	// exercising the degradation ladder without an irregular layout.
	StageFFT = "numeric.fft"
	// StageExpJob is one worker job of the experiment harness pool.
	StageExpJob = "exp.job"

	// Store checkpoints cover every IO edge of the durable artifact
	// store (internal/store): the data write into the temp file, the
	// fsync making it durable, the rename making it visible, the read
	// back, and the content-hash verification of what was read.
	StageStoreWrite  = "store.write"
	StageStoreFsync  = "store.fsync"
	StageStoreRename = "store.rename"
	StageStoreRead   = "store.read"
	StageStoreVerify = "store.verify"
)

// Stages lists every injection point threaded through the flow.
func Stages() []string {
	return []string{StageConfig, StagePlace, StageRoute, StageExtract,
		StageAnalyze, StageLinalgCG, StageFFT, StageExpJob,
		StageStoreWrite, StageStoreFsync, StageStoreRename,
		StageStoreRead, StageStoreVerify}
}

type point struct {
	ordinal  int // pass index (0-based) at which the fault fires
	count    int // passes seen so far
	err      error
	panicMsg string
	doPanic  bool
	fired    bool
}

var (
	armed  atomic.Bool
	mu     sync.Mutex
	points = map[string]*point{}
)

// Enable arms stage so that its ordinal-th pass (0-based) through
// Check returns err. Re-arming a stage replaces the previous fault and
// resets its pass counter.
func Enable(stage string, ordinal int, err error) {
	mu.Lock()
	defer mu.Unlock()
	points[stage] = &point{ordinal: ordinal, err: err}
	armed.Store(true)
}

// EnablePanic arms stage so that its ordinal-th pass through Check
// panics with msg — used to verify panic containment boundaries.
func EnablePanic(stage string, ordinal int, msg string) {
	mu.Lock()
	defer mu.Unlock()
	points[stage] = &point{ordinal: ordinal, panicMsg: msg, doPanic: true}
	armed.Store(true)
}

// Disable disarms one stage, leaving others armed.
func Disable(stage string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, stage)
	armed.Store(len(points) > 0)
}

// Reset disarms every stage. Tests should defer this after arming.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	armed.Store(false)
}

// Fired reports whether the armed fault at stage has triggered.
func Fired(stage string) bool {
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[stage]
	return ok && p.fired
}

// Check is the injection point: it returns nil (and is nearly free)
// unless a test armed this stage's current pass, in which case it
// returns the armed error or panics. Each call advances the stage's
// pass counter while the stage is armed.
func Check(stage string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	p, ok := points[stage]
	if !ok {
		mu.Unlock()
		return nil
	}
	hit := p.count == p.ordinal
	p.count++
	if hit {
		p.fired = true
	}
	doPanic, msg, err := p.doPanic, p.panicMsg, p.err
	mu.Unlock()
	if !hit {
		return nil
	}
	if doPanic {
		panic(fmt.Sprintf("fault: injected panic at %s: %s", stage, msg))
	}
	return err
}
