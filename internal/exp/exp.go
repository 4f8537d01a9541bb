// Package exp regenerates every table and figure of the paper's
// evaluation (Sec. V): Table I (electrical metrics), Table II
// (performance metrics), Table III (runtimes), and the data series of
// Figs. 2-6. Methods follow the paper's conditions: the spiral ("S")
// and best block-chessboard ("BC") flows use parallel routing on
// critical bits; the baselines "[1]" (annealed stand-in) and "[7]"
// (chessboard) do not; "[1]" reports even bit counts only.
package exp

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ccdac/internal/core"
	"ccdac/internal/fault"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// Method identifies a column of the paper's tables.
type Method string

const (
	// MethodLin is "[1]": the annealed stand-in for Lin et al.
	MethodLin Method = "[1]"
	// MethodBurcea is "[7]": the chessboard placement of Burcea et al.
	MethodBurcea Method = "[7]"
	// MethodSpiral is "S": the paper's spiral placement.
	MethodSpiral Method = "S"
	// MethodBC is "BC": the best block-chessboard structure.
	MethodBC Method = "BC"
)

// Methods lists the table columns in paper order.
var Methods = []Method{MethodLin, MethodBurcea, MethodSpiral, MethodBC}

// DefaultBits is the paper's N range.
var DefaultBits = []int{6, 7, 8, 9, 10}

// DefaultParallel is the parallel-wire count applied to critical bits
// of the S and BC flows in the tables (Sec. IV-B4).
const DefaultParallel = 2

// Harness runs and caches flow results for the tables and figures.
type Harness struct {
	// Parallel overrides DefaultParallel when > 0.
	Parallel int
	// ThetaSteps forwards to core.Config (0 = default).
	ThetaSteps int
	// AnnealMoves caps the baseline's SA effort (0 = core default).
	AnnealMoves int
	// Tech overrides the process technology (nil = tech.FinFET12).
	Tech *tech.Technology
	// Memo arms the process-wide stage caches (core.Config.Memo) for
	// every run the harness launches. Results are bitwise identical;
	// callers that re-run overlapping configurations (calibration,
	// knob sweeps) trade memory for large wall-time savings.
	Memo bool

	mu    sync.Mutex
	cache map[string]*core.Result
}

// NewHarness returns a harness with the paper's default settings.
func NewHarness() *Harness { return &Harness{cache: map[string]*core.Result{}} }

func (h *Harness) parallel() int {
	if h.Parallel > 0 {
		return h.Parallel
	}
	return DefaultParallel
}

// Available reports whether the paper evaluates the method at this bit
// count ("[1]" columns are dashes for 7- and 9-bit DACs).
func Available(m Method, bits int) bool {
	return m != MethodLin || bits%2 == 0
}

// Run returns the (cached) flow result for a method at a bit count.
func (h *Harness) Run(m Method, bits int) (*core.Result, error) {
	return h.RunContext(context.Background(), m, bits)
}

// RunContext is Run under a context: cancellation and deadlines abort
// the flow at its next stage boundary.
func (h *Harness) RunContext(ctx context.Context, m Method, bits int) (*core.Result, error) {
	if !Available(m, bits) {
		return nil, fmt.Errorf("exp: %s does not report %d-bit results", m, bits)
	}
	key := fmt.Sprintf("%s/%d/p%d", m, bits, h.parallel())
	h.mu.Lock()
	if r, ok := h.cache[key]; ok {
		h.mu.Unlock()
		return r, nil
	}
	h.mu.Unlock()

	var r *core.Result
	var err error
	switch m {
	case MethodLin:
		cfg := core.Config{Bits: bits, Style: place.Annealed, ThetaSteps: h.ThetaSteps, Tech: h.Tech, Memo: h.Memo}
		cfg.Anneal = place.DefaultAnnealConfig()
		cfg.Anneal.Moves = h.AnnealMoves
		r, err = core.RunContext(ctx, cfg)
	case MethodBurcea:
		r, err = core.RunContext(ctx, core.Config{Bits: bits, Style: place.Chessboard, ThetaSteps: h.ThetaSteps, Tech: h.Tech, Memo: h.Memo})
	case MethodSpiral:
		r, err = core.RunContext(ctx, core.Config{
			Bits: bits, Style: place.Spiral,
			MaxParallel: h.parallel(), ThetaSteps: h.ThetaSteps, Tech: h.Tech, Memo: h.Memo,
		})
	case MethodBC:
		r, _, err = core.RunBestBCContext(ctx, core.Config{
			Bits: bits, MaxParallel: h.parallel(), ThetaSteps: h.ThetaSteps, Tech: h.Tech, Memo: h.Memo,
		})
	default:
		return nil, fmt.Errorf("exp: unknown method %q", m)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: %s %d-bit: %w", m, bits, err)
	}
	h.mu.Lock()
	h.cache[key] = r
	h.mu.Unlock()
	return r, nil
}

type job struct {
	m Method
	n int
}

// Prefetch computes every available (method, bits) flow result
// concurrently and fills the cache, so the subsequent table builders
// only read. Results are deterministic regardless of scheduling: each
// run is seeded and independent.
func (h *Harness) Prefetch(bits []int) error {
	return h.PrefetchContext(context.Background(), bits)
}

// PrefetchContext runs the prefetch under a context, GOMAXPROCS jobs
// at a time. Each job is isolated: a job that fails — or panics —
// yields a per-job error while sibling jobs run to completion, and the
// returned error joins every per-job failure (nil when all succeed).
// Cancelling ctx stops job dispatch and aborts in-flight jobs at their
// next stage boundary.
func (h *Harness) PrefetchContext(ctx context.Context, bits []int) error {
	var jobs []job
	for _, n := range bits {
		for _, m := range Methods {
			if Available(m, n) {
				jobs = append(jobs, job{m, n})
			}
		}
	}
	errs := make([]error, len(jobs))
	// The callback records each job's error and returns nil, so one
	// failure never stops ForN from claiming the remaining jobs, and
	// ForN itself returns nil.
	_ = par.ForN(par.Resolve(0), len(jobs), func(i int) error {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("exp: %s %d-bit: not started: %w", jobs[i].m, jobs[i].n, err)
			return nil
		}
		errs[i] = h.runJob(ctx, jobs[i])
		return nil
	})
	return errors.Join(errs...)
}

// runJob executes one prefetch job with panic containment. A
// recovered panic becomes this job's error; it never takes down the
// pool. Each job runs under its own observability span (errored on
// failure) and feeds the pool's job counters and duration histogram.
func (h *Harness) runJob(ctx context.Context, j job) (err error) {
	ctx, span := obs.StartSpan(ctx, "exp.job")
	span.SetAttr("method", string(j.m))
	span.SetAttr("bits", strconv.Itoa(j.n))
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exp: %s %d-bit: recovered panic: %v", j.m, j.n, r)
		}
		obs.Count(ctx, "ccdac_exp_jobs_total", 1)
		if err != nil {
			obs.Count(ctx, "ccdac_exp_job_failures_total", 1)
		}
		obs.ObserveDuration(ctx, "ccdac_exp_job_seconds", time.Since(start))
		span.Fail(err)
		span.End()
	}()
	if ferr := fault.Check(fault.StageExpJob); ferr != nil {
		return fmt.Errorf("exp: %s %d-bit: %w", j.m, j.n, ferr)
	}
	_, err = h.RunContext(ctx, j.m, j.n)
	return err
}

// TableIRow is one (bits, method) cell group of Table I.
type TableIRow struct {
	Bits      int
	Method    Method
	Available bool
	// CTSfF, CWirefF, CBBfF are the capacitance sums in fF.
	CTSfF, CWirefF, CBBfF float64
	// NV is ΣN_V (via cuts); LUm is ΣL (total wirelength, um).
	NV  int
	LUm float64
	// RVkOhm and RTotalkOhm are the critical bit's total via and
	// wire+via resistance in kOhm.
	RVkOhm, RTotalkOhm float64
}

// TableI regenerates the paper's Table I for the given bit counts.
func (h *Harness) TableI(bits []int) ([]TableIRow, error) {
	var rows []TableIRow
	for _, n := range bits {
		for _, m := range Methods {
			row := TableIRow{Bits: n, Method: m, Available: Available(m, n)}
			if row.Available {
				r, err := h.Run(m, n)
				if err != nil {
					return nil, err
				}
				crit := r.Electrical.Bits[r.CriticalBit]
				row.CTSfF = r.Electrical.CTSfF
				row.CWirefF = r.Electrical.CWirefF
				row.CBBfF = r.Electrical.CBBfF
				row.NV = r.Electrical.ViaCuts
				row.LUm = r.Electrical.WirelengthUm
				row.RVkOhm = crit.RViaOhm / 1000
				row.RTotalkOhm = (crit.RViaOhm + crit.RWireOhm) / 1000
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// TableIIRow is one (bits, method) cell group of Table II.
type TableIIRow struct {
	Bits      int
	Method    Method
	Available bool
	AreaUm2   float64
	// DNL and INL are the worst-case absolute values in LSB.
	DNL, INL float64
	F3dBMHz  float64
}

// TableII regenerates the paper's Table II.
func (h *Harness) TableII(bits []int) ([]TableIIRow, error) {
	var rows []TableIIRow
	for _, n := range bits {
		for _, m := range Methods {
			row := TableIIRow{Bits: n, Method: m, Available: Available(m, n)}
			if row.Available {
				r, err := h.Run(m, n)
				if err != nil {
					return nil, err
				}
				row.AreaUm2 = r.Electrical.AreaUm2
				row.F3dBMHz = r.F3dBHz / 1e6
				if r.NL != nil {
					row.DNL = r.NL.MaxAbsDNL
					row.INL = r.NL.MaxAbsINL
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// TableIIIRow reports the constructive layout runtimes of Table III.
type TableIIIRow struct {
	Bits             int
	SpiralSec, BCSec float64
}

// TableIII regenerates the paper's Table III (place+route wall time).
func (h *Harness) TableIII(bits []int) ([]TableIIIRow, error) {
	var rows []TableIIIRow
	for _, n := range bits {
		s, err := h.Run(MethodSpiral, n)
		if err != nil {
			return nil, err
		}
		bc, err := h.Run(MethodBC, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIIIRow{
			Bits:      n,
			SpiralSec: (s.PlaceTime + s.RouteTime).Seconds(),
			BCSec:     (bc.PlaceTime + bc.RouteTime).Seconds(),
		})
	}
	return rows, nil
}

// Fig6aSeries is the frequency-improvement-factor curve of Fig. 6(a):
// f3dB with k parallel wires over f3dB with one wire, for spiral
// placements.
type Fig6aSeries struct {
	Bits    int
	Ks      []int
	Factors []float64
}

// Fig6a computes the spiral parallel-wire improvement factors.
func (h *Harness) Fig6a(bits []int, ks []int) ([]Fig6aSeries, error) {
	var out []Fig6aSeries
	for _, n := range bits {
		f, err := core.ParallelSweep(core.Config{Bits: n, Style: place.Spiral}, ks)
		if err != nil {
			return nil, err
		}
		s := Fig6aSeries{Bits: n, Ks: ks, Factors: make([]float64, len(ks))}
		base := f[0]
		for i := range f {
			s.Factors[i] = f[i] / base
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig6bSeries is one method's curve of Fig. 6(b): f3dB versus parallel
// wire count, normalized to the spiral's single-wire f3dB.
type Fig6bSeries struct {
	Method     Method
	Ks         []int
	Normalized []float64
}

// Fig6b computes f3dB(method, k) / f3dB(S, k=1) for every method at
// one bit count. The "[1]" baseline requires an even bit count.
func (h *Harness) Fig6b(bits int, ks []int) ([]Fig6bSeries, error) {
	styleOf := map[Method]core.Config{
		MethodLin:    {Bits: bits, Style: place.Annealed, Anneal: place.DefaultAnnealConfig()},
		MethodBurcea: {Bits: bits, Style: place.Chessboard},
		MethodSpiral: {Bits: bits, Style: place.Spiral},
		MethodBC:     {Bits: bits, Style: place.BlockChessboard},
	}
	base, err := core.ParallelSweep(core.Config{Bits: bits, Style: place.Spiral}, []int{1})
	if err != nil {
		return nil, err
	}
	var out []Fig6bSeries
	for _, m := range Methods {
		if !Available(m, bits) {
			continue
		}
		f, err := core.ParallelSweep(styleOf[m], ks)
		if err != nil {
			return nil, err
		}
		s := Fig6bSeries{Method: m, Ks: ks, Normalized: make([]float64, len(ks))}
		for i := range f {
			s.Normalized[i] = f[i] / base[0]
		}
		out = append(out, s)
	}
	return out, nil
}
