// Package jobs is the asynchronous job tier behind POST /v1/jobs: a
// bounded priority queue feeding a worker pool decoupled from the HTTP
// admission budget, so workloads that do not fit a request/response
// timeout — million-sample yield Monte Carlo, 14-bit analyses, best-BC
// sweeps — run to completion instead of burning an inflight slot or
// being shed.
//
// The performance lever is compatibility micro-batching: queued yield
// jobs that share the expensive prefix (placement, routing, extraction
// and the covariance are determined by the same fields) while
// differing only in cheap tail fields (seed, sample count, spec
// bounds, gradient angle) are coalesced into one group. The group runs
// the prefix once and fans the per-job Monte-Carlo tails across the
// shared structure. Because sample s of a run depends only on
// (seed, s) — the splitmix64 per-sample streams of
// internal/variation — a coalesced job's output is byte-identical to
// the same job run solo, and a checkpointed job resumes mid-stream
// after a crash with identical final output. See docs/PERFORMANCE.md,
// "Micro-batching".
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ccdac"
	"ccdac/internal/core"
	"ccdac/internal/memo"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

// Job kinds.
const (
	// KindGenerate runs the full constructive flow (ccdac.Generate,
	// or the best-BC sweep when BestBC is set). Never coalesced.
	KindGenerate = "generate"
	// KindYield runs a checkpointed Monte-Carlo yield estimate.
	// Coalescable: jobs sharing a prefix key batch onto one layout.
	KindYield = "yield"
)

// Priority classes, highest first. The queue always dequeues the
// highest class with work; FIFO within a class.
const (
	classInteractive = iota
	classBatch
	classBackground
	numClasses
)

// Spec is the JSON body of POST /v1/jobs: what to run and at what
// priority. The first field block is the coalescing prefix — every
// field that determines the expensive place→route→extract→covariance
// work; yield jobs agreeing on all of them share one prefix run. The
// tail blocks are the cheap per-job fields the group runner fans out.
type Spec struct {
	Kind     string `json:"kind"`
	Priority string `json:"priority,omitempty"` // "interactive" | "batch" (default) | "background"

	// Prefix fields (mirror ccdac.Config / POST /v1/generate).
	Bits        int    `json:"bits"`
	Style       string `json:"style,omitempty"`
	CoreBits    int    `json:"core_bits,omitempty"`
	BlockCells  int    `json:"block_cells,omitempty"`
	MaxParallel int    `json:"max_parallel,omitempty"`
	AnnealSeed  int64  `json:"anneal_seed,omitempty"`
	AnnealMoves int    `json:"anneal_moves,omitempty"`
	TechNode    string `json:"tech_node,omitempty"`
	// FFT selects a yield job's sampler: "off" draws exactly, from the
	// dense covariance. Every generate builds through QuadForms, so
	// withDefaults holds a generate spec's fft at "auto".
	FFT string `json:"fft,omitempty"`

	// Generate tail.
	ThetaSteps       int  `json:"theta_steps,omitempty"`
	SkipNonlinearity bool `json:"skip_nonlinearity,omitempty"`
	BestBC           bool `json:"best_bc,omitempty"`

	// Yield tail: the Monte-Carlo estimate's cheap per-job knobs.
	Samples int     `json:"samples,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	SpecINL float64 `json:"spec_inl,omitempty"`
	SpecDNL float64 `json:"spec_dnl,omitempty"` // 0 = same as spec_inl
	// ThetaDeg is the oxide-gradient angle in degrees (default 45).
	ThetaDeg float64 `json:"theta_deg,omitempty"`
	// CheckpointEvery bounds the samples evaluated between durable
	// checkpoints (0 = the manager default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// withDefaults fills the documented defaults so records, keys and
// equality checks all see one canonical form: fields the selected style
// ignores are zeroed, and so are the other kind's tail fields.
func (s Spec) withDefaults() Spec {
	if s.Priority == "" {
		s.Priority = "batch"
	}
	if s.Style == "" {
		s.Style = string(ccdac.Spiral)
	}
	if s.TechNode == "" {
		s.TechNode = "finfet12"
	}
	if s.FFT == "" || s.Kind != KindYield {
		s.FFT = "auto"
	}
	if s.MaxParallel <= 1 {
		s.MaxParallel = 0
	}
	if s.Kind == KindYield {
		if s.Samples == 0 {
			s.Samples = 10000
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.SpecDNL == 0 {
			s.SpecDNL = s.SpecINL
		}
		if s.ThetaDeg == 0 {
			s.ThetaDeg = 45
		}
		// Yield jobs ignore the generate tail.
		s.ThetaSteps, s.SkipNonlinearity, s.BestBC = 0, false, false
	} else {
		s.Samples, s.Seed, s.SpecINL, s.SpecDNL = 0, 0, 0, 0
		s.ThetaDeg, s.CheckpointEvery = 0, 0
	}
	if s.BestBC {
		s.Style = string(ccdac.BlockChessboard)
		s.CoreBits, s.BlockCells = 0, 0
	}
	if s.Style != string(ccdac.BlockChessboard) {
		s.CoreBits, s.BlockCells = 0, 0
	}
	if s.Style != string(ccdac.Annealed) {
		s.AnnealSeed, s.AnnealMoves = 0, 0
	}
	return s
}

// Validate rejects specs the runner could not execute. It checks the
// fft field as submitted, since withDefaults canonicalizes a generate
// spec's away, and every other field in canonical form. Both kinds are
// held to the public ccdac.Config bounds, so an out-of-range field is
// refused at submission instead of failing (or silently running)
// later.
func (s Spec) Validate() error {
	if err := CheckFFT(s.FFT); err != nil {
		return err
	}
	s = s.withDefaults()
	switch s.Kind {
	case KindGenerate:
	case KindYield:
		if s.SpecINL <= 0 || s.SpecDNL <= 0 {
			return fmt.Errorf("jobs: yield jobs need positive spec_inl (got inl=%g dnl=%g)", s.SpecINL, s.SpecDNL)
		}
		if s.Samples < 1 {
			return fmt.Errorf("jobs: yield jobs need at least 1 sample")
		}
		if s.CheckpointEvery < 0 {
			return fmt.Errorf("jobs: checkpoint_every must be >= 0")
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q (want %q or %q)", s.Kind, KindGenerate, KindYield)
	}
	if _, err := s.class(); err != nil {
		return err
	}
	return s.Config(0, false).Validate()
}

// CheckFFT is the one check of the fft field, shared by job specs,
// /v1/generate and /v1/batch: an unknown value is a config error.
func CheckFFT(fft string) error {
	switch fft {
	case "", "auto", "off":
		return nil
	}
	return fmt.Errorf("jobs: %w: unknown covariance engine %q (want \"auto\" or \"off\")", ccdac.ErrConfig, fft)
}

// class resolves the priority class.
func (s Spec) class() (int, error) {
	switch s.Priority {
	case "interactive":
		return classInteractive, nil
	case "", "batch":
		return classBatch, nil
	case "background":
		return classBackground, nil
	}
	return 0, fmt.Errorf("jobs: unknown priority %q (want \"interactive\", \"batch\" or \"background\")", s.Priority)
}

// key is the one key builder: it hashes every field of a canonical
// (withDefaults) spec that can change a generate result, in a fixed
// order, under domain. ThetaSteps is keyed as the sweep the pipeline
// actually runs — none under SkipNonlinearity, 8 when unset. That rule
// lives here rather than in withDefaults so that job records keep the
// spec as submitted.
func (s Spec) key(domain string) string {
	theta := s.ThetaSteps
	if s.SkipNonlinearity {
		theta = 0
	} else if theta == 0 {
		theta = 8
	}
	return memo.NewKey(domain).
		Int(s.Bits).Str(s.Style).Int(s.CoreBits).Int(s.BlockCells).
		Int(s.MaxParallel).I64(s.AnnealSeed).Int(s.AnnealMoves).
		Int(theta).Bool(s.SkipNonlinearity).Str(s.TechNode).
		Bool(s.BestBC).Str(s.FFT).Sum()
}

// GenerateKey is the result identity of a generate spec: serve's result
// cache and the artifact store index its result under this key. The
// domain keeps the name and version every stored key was built with.
// v2 added the fft directive, which withDefaults now holds at "auto"
// for every generate spec; the key still hashes it, so stored entries
// keep their keys. v3 marked the move of grid and odd-bit routed
// covariances to the row-spectral engine, up to ~2e-12 from what older
// binaries stored.
func (s Spec) GenerateKey() string {
	return s.withDefaults().key("serve/generate/v3")
}

// prefixKey identifies the expensive shared prefix of a canonical
// yield job: two jobs with equal keys place, route, extract and build
// covariance identically, so the coalescer may run that work once for
// both. withDefaults zeroes a yield job's generate tail, so only the
// prefix fields vary the key; the yield tail (seed, samples, specs,
// theta) is not keyed at all.
func (s Spec) prefixKey() string { return s.key("jobs/prefix/v2") }

// coreConfig maps the prefix fields onto the internal flow config (the
// same mapping ccdac.Config undergoes) plus the resolved technology.
// Yield jobs always skip the generate-side NL sweep: the Monte-Carlo
// tail is the nonlinearity analysis.
func (s Spec) coreConfig(workers int, useMemo bool) (core.Config, *tech.Technology, error) {
	out := core.Config{
		Bits:        s.Bits,
		MaxParallel: s.MaxParallel,
		Workers:     workers,
		Memo:        useMemo,
	}
	t := tech.FinFET12()
	switch s.TechNode {
	case "finfet12":
	case "bulk65":
		t = tech.Bulk65()
		out.Tech = t
	default:
		return core.Config{}, nil, fmt.Errorf("jobs: %w: unknown technology node %q", ccdac.ErrConfig, s.TechNode)
	}
	switch ccdac.Style(s.Style) {
	case ccdac.Spiral:
		out.Style = place.Spiral
	case ccdac.Chessboard:
		out.Style = place.Chessboard
	case ccdac.BlockChessboard:
		out.Style = place.BlockChessboard
		out.BC = place.BCParams{CoreBits: s.CoreBits, BlockCells: s.BlockCells}
	case ccdac.Annealed:
		out.Style = place.Annealed
		out.Anneal = place.DefaultAnnealConfig()
		if s.AnnealSeed != 0 {
			out.Anneal.Seed = s.AnnealSeed
		}
		if s.AnnealMoves != 0 {
			out.Anneal.Moves = s.AnnealMoves
		}
	default:
		return core.Config{}, nil, fmt.Errorf("jobs: %w: unknown placement style %q", ccdac.ErrConfig, s.Style)
	}
	if s.Kind == KindYield {
		out.SkipNL = true
	} else {
		out.ThetaSteps = s.ThetaSteps
		out.SkipNL = s.SkipNonlinearity
	}
	return out, t, nil
}

// Config maps the spec onto the public API config under a worker budget
// and memo switch. A best-BC spec validates and runs as block
// chessboard, the style GenerateBestBC forces.
func (s Spec) Config(workers int, useMemo bool) ccdac.Config {
	cfg := ccdac.Config{
		Bits:             s.Bits,
		Style:            ccdac.Style(s.Style),
		CoreBits:         s.CoreBits,
		BlockCells:       s.BlockCells,
		MaxParallel:      s.MaxParallel,
		AnnealSeed:       s.AnnealSeed,
		AnnealMoves:      s.AnnealMoves,
		ThetaSteps:       s.ThetaSteps,
		SkipNonlinearity: s.SkipNonlinearity,
		TechNode:         s.TechNode,
		Workers:          workers,
		Memo:             useMemo,
	}
	if s.BestBC {
		cfg.Style = ccdac.BlockChessboard
	}
	return cfg
}

// Generate runs the flow a generate spec selects under cfg, the spec's
// Config as the caller armed it: the best-BC sweep when BestBC is set,
// one fixed structure otherwise. The job runner and serve's result
// cache both run generate work through it.
func (s Spec) Generate(ctx context.Context, cfg ccdac.Config) (*ccdac.Result, error) {
	if s.BestBC {
		res, _, err := ccdac.GenerateBestBCContext(ctx, cfg)
		return res, err
	}
	return ccdac.GenerateContext(ctx, cfg)
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the externally visible job record: returned by Submit,
// GET /v1/jobs/{id}, and persisted across restarts.
type Job struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	CreatedMS  int64 `json:"created_unix_ms"`
	StartedMS  int64 `json:"started_unix_ms,omitempty"`
	FinishedMS int64 `json:"finished_unix_ms,omitempty"`

	// DoneSamples and Checkpoints report a yield job's progress; a
	// poller can derive percent-complete against Spec.Samples.
	DoneSamples int `json:"done_samples,omitempty"`
	Checkpoints int `json:"checkpoints,omitempty"`
	// Resumed marks a job that restarted from a durable checkpoint
	// after a crash or eviction.
	Resumed bool `json:"resumed,omitempty"`
	// Coalesced is the size of the compatibility group the job ran in
	// (1 = solo).
	Coalesced int `json:"coalesced,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`
}

// YieldResult is the Result payload of a finished yield job.
type YieldResult struct {
	Samples  int     `json:"samples"`
	Passed   int     `json:"passed"`
	Yield    float64 `json:"yield"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
	WorstDNL float64 `json:"worst_dnl"`
	WorstINL float64 `json:"worst_inl"`
	// SampleHash is the rolling FNV-1a over every sample's
	// nonlinearity bits in stream order — the byte-identity witness:
	// solo, coalesced and crash-resumed runs of one spec agree on it
	// exactly or something is wrong.
	SampleHash string   `json:"sample_hash"`
	Warnings   []string `json:"warnings,omitempty"`
}

// GenerateResult is the Result payload of a finished generate job.
type GenerateResult struct {
	Metrics  ccdac.Metrics `json:"metrics"`
	Warnings []string      `json:"warnings,omitempty"`
}

// Checkpoint is one durable partial-progress record of a yield job:
// samples [0, Done) have been folded into Tally. The runner persists
// it synchronously before advancing (workers are off the request
// path, so blocking on fsync is the point — a checkpoint that is not
// durable is not a checkpoint).
type Checkpoint struct {
	JobID string `json:"job_id"`
	// Stream is the variation.SampleStream the tally was drawn on; a
	// record without one predates the field.
	Stream int         `json:"stream"`
	Done   int         `json:"done"`
	Seq    int         `json:"seq"`
	Tally  yield.Tally `json:"tally"`
}

// resumable reports whether j may continue from ck: ck must be j's
// own, inside its sample range, and drawn on this build's sample
// stream — a tally of other draws must not be continued with these.
func (ck *Checkpoint) resumable(j Job) bool {
	return ck.Stream == variation.SampleStream && ck.JobID == j.ID &&
		ck.Done > 0 && ck.Done <= j.Spec.Samples
}

// nowMS is the record timestamp base.
func nowMS() int64 { return time.Now().UnixMilli() }
