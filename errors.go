package ccdac

import (
	"errors"
	"fmt"

	"ccdac/internal/core"
	"ccdac/internal/fault"
)

// Stage names carried by PipelineError.Stage, one per pipeline phase.
const (
	StageConfig     = fault.StageConfig
	StagePlacement  = fault.StagePlace
	StageRouting    = fault.StageRoute
	StageExtraction = fault.StageExtract
	StageAnalysis   = fault.StageAnalyze
)

// Sentinel stage errors. Every error returned by Generate,
// GenerateContext and GenerateBestBC is a *PipelineError matching
// exactly one of these under errors.Is, so callers can branch on the
// failing stage without string matching:
//
//	if errors.Is(err, ccdac.ErrConfig) { ... reject the request ... }
//	if errors.Is(err, ccdac.ErrRouting) { ... retry another style ... }
var (
	// ErrConfig marks an invalid Config rejected before the flow runs.
	ErrConfig = errors.New("ccdac: invalid configuration")
	// ErrPlacement marks a failure while constructing the placement.
	ErrPlacement = errors.New("ccdac: placement failed")
	// ErrRouting marks a failure in the constructive router.
	ErrRouting = errors.New("ccdac: routing failed")
	// ErrExtraction marks a failure in parasitic extraction or the
	// Elmore/moment solves.
	ErrExtraction = errors.New("ccdac: extraction failed")
	// ErrAnalysis marks a failure in the variation / INL/DNL analysis.
	ErrAnalysis = errors.New("ccdac: analysis failed")
)

// sentinelOf maps a pipeline stage name to its sentinel (nil for
// stages without one, e.g. the "internal" orchestration backstop).
func sentinelOf(stage string) error {
	switch stage {
	case StageConfig:
		return ErrConfig
	case StagePlacement:
		return ErrPlacement
	case StageRouting:
		return ErrRouting
	case StageExtraction:
		return ErrExtraction
	case StageAnalysis:
		return ErrAnalysis
	}
	return nil
}

// PipelineError is the typed error returned by the generation entry
// points: it names the failing Stage, echoes the requested Bits and
// Style, and wraps the underlying cause (including recovered panics,
// which carry the panic value and stack). It matches the stage's
// sentinel under errors.Is and unwraps to the cause for errors.As.
type PipelineError struct {
	// Stage is the pipeline phase that failed: StageConfig,
	// StagePlacement, StageRouting, StageExtraction, StageAnalysis, or
	// "internal" for a contained orchestration panic.
	Stage string
	// Bits and Style echo the configuration that failed.
	Bits  int
	Style Style
	// Warnings preserves the graceful degradations the run had already
	// accumulated before failing (solver fallbacks, abandoned
	// promotions). On success these ride on Result.Warnings; on failure
	// the Result is discarded, so they surface here instead.
	Warnings []string
	// Err is the underlying cause.
	Err error
}

func (e *PipelineError) Error() string {
	return fmt.Sprintf("ccdac: %s failed (bits=%d, style=%s): %v", e.Stage, e.Bits, e.Style, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As (so e.g.
// context.Canceled remains matchable through the wrapper).
func (e *PipelineError) Unwrap() error { return e.Err }

// Is matches the sentinel of the failing stage.
func (e *PipelineError) Is(target error) bool {
	s := sentinelOf(e.Stage)
	return s != nil && target == s
}

// Limits on Config knobs enforced by validation.
const (
	// MinBits and MaxBits bound the supported DAC resolution.
	MinBits = 2
	MaxBits = 12
	// MaxParallelWires bounds Config.MaxParallel: beyond 8 parallel
	// wires the p² via arrays outgrow any realistic driver pitch.
	MaxParallelWires = 8
	// MaxThetaSteps bounds the gradient-angle sweep resolution.
	MaxThetaSteps = 360
	// MaxAnnealMoves bounds the annealed baseline's move budget.
	MaxAnnealMoves = 10_000_000
	// MaxWorkers bounds Config.Workers: a fan-out wider than this only
	// adds scheduling overhead for the array sizes MaxBits allows.
	MaxWorkers = 256
)

// configErr builds the *PipelineError for one invalid Config field.
func configErr(cfg Config, field, format string, args ...any) error {
	return &PipelineError{
		Stage: StageConfig,
		Bits:  cfg.Bits,
		Style: cfg.Style,
		Err:   fmt.Errorf("field %s: %s", field, fmt.Sprintf(format, args...)),
	}
}

// Validate rejects malformed configurations before any flow stage
// runs, naming the offending field. Every error matches ErrConfig.
// Generate and GenerateBestBC call it on entry; front ends call it to
// refuse a bad request before queueing or caching it.
func (cfg Config) Validate() error {
	if cfg.Bits < MinBits || cfg.Bits > MaxBits {
		return configErr(cfg, "Bits", "%d outside supported range %d..%d", cfg.Bits, MinBits, MaxBits)
	}
	switch cfg.Style {
	case "", Spiral, Chessboard, BlockChessboard, Annealed:
	default:
		return configErr(cfg, "Style", "unknown placement style %q", cfg.Style)
	}
	if cfg.MaxParallel < 0 || cfg.MaxParallel > MaxParallelWires {
		return configErr(cfg, "MaxParallel", "%d outside 0..%d", cfg.MaxParallel, MaxParallelWires)
	}
	if cfg.CoreBits != 0 || cfg.BlockCells != 0 {
		if cfg.CoreBits == 0 {
			return configErr(cfg, "CoreBits", "must be set when BlockCells is (got BlockCells=%d)", cfg.BlockCells)
		}
		if cfg.BlockCells == 0 {
			return configErr(cfg, "BlockCells", "must be set when CoreBits is (got CoreBits=%d)", cfg.CoreBits)
		}
		if cfg.CoreBits < 2 || cfg.CoreBits > cfg.Bits-1 || cfg.CoreBits%2 != 0 {
			return configErr(cfg, "CoreBits", "%d must be even and in 2..%d", cfg.CoreBits, cfg.Bits-1)
		}
		if cfg.BlockCells < 1 || cfg.BlockCells > 64 {
			return configErr(cfg, "BlockCells", "%d outside 1..64", cfg.BlockCells)
		}
	}
	if cfg.AnnealMoves < 0 || cfg.AnnealMoves > MaxAnnealMoves {
		return configErr(cfg, "AnnealMoves", "%d outside 0..%d", cfg.AnnealMoves, MaxAnnealMoves)
	}
	if cfg.ThetaSteps < 0 || cfg.ThetaSteps > MaxThetaSteps {
		return configErr(cfg, "ThetaSteps", "%d outside 0..%d", cfg.ThetaSteps, MaxThetaSteps)
	}
	// Negative Workers (serial) is a supported debugging knob; only an
	// absurd positive fan-out is rejected.
	if cfg.Workers > MaxWorkers {
		return configErr(cfg, "Workers", "%d exceeds %d", cfg.Workers, MaxWorkers)
	}
	switch cfg.TechNode {
	case "", "finfet12", "bulk65":
	default:
		return configErr(cfg, "TechNode", "unknown technology node %q", cfg.TechNode)
	}
	return nil
}

// wrapRunError converts an internal flow error into the public
// *PipelineError, preserving the stage attribution recorded by core.
func wrapRunError(cfg Config, err error) error {
	if err == nil {
		return nil
	}
	var pe *PipelineError
	if errors.As(err, &pe) {
		return err
	}
	stage := "internal"
	var warnings []string
	var se *core.StageError
	if errors.As(err, &se) {
		stage = se.Stage
		warnings = append([]string(nil), se.Warnings...)
	}
	style := cfg.Style
	if style == "" {
		style = Spiral
	}
	return &PipelineError{Stage: stage, Bits: cfg.Bits, Style: style, Warnings: warnings, Err: err}
}
