package variation

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/linalg"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// The unit-level Monte-Carlo oracle: the sampler the exact capacitor-
// level one replaced, kept here as an independent check on Analysis.Cov.
// It builds the n×n unit-cell covariance sigma_u²·rho(d) with a
// sigma_u²·1e-9 diagonal jitter, factors it in O(n³), and folds each
// sample's O(n²) correlated unit draw into the N+1 capacitor sums.
// Without it, Monte-Carlo and the 3σ model would share one covariance
// and check nothing about it.

// oracleUnit is one positioned unit cell, tagged with its capacitor.
// The oracle gathers its own list rather than reading the Shared
// prefix it checks.
type oracleUnit struct {
	bit int
	p   geom.Pt
}

// oracleUnits flattens the placement into bit-tagged unit cells.
func oracleUnits(m *ccmatrix.Matrix, pos Positioner) []oracleUnit {
	var units []oracleUnit
	for k := 0; k <= m.Bits; k++ {
		for _, c := range m.CellsOf(k) {
			units = append(units, oracleUnit{bit: k, p: pos(c)})
		}
	}
	return units
}

// oracleUnitCov builds the jittered unit-cell covariance over units,
// one row per work item on the context's worker budget.
func oracleUnitCov(ctx context.Context, units []oracleUnit, t *tech.Technology) (*linalg.Dense, error) {
	n := len(units)
	sigmaU2 := t.SigmaU() * t.SigmaU()
	cov := linalg.NewDense(n)
	rt := t.RhoTable()
	err := par.ForN(par.Workers(ctx), n, func(i int) error {
		local := rt.Local()
		for j := i; j < n; j++ {
			dx, dy := units[i].p.X-units[j].p.X, units[i].p.Y-units[j].p.Y
			c := sigmaU2 * local.RhoSq(dx*dx+dy*dy)
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
		cov.Add(i, i, sigmaU2*1e-9)
		return nil
	})
	return cov, err
}

// OracleMonteCarloRange draws the sample block [from, to) at unit
// level: sample s takes n normals from the same per-sample stream the
// production samplers use, so its output is byte-stable at any worker
// count. Exported for the statistical test in package variation_test.
func OracleMonteCarloRange(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology, a *Analysis, from, to int, seed int64) ([][]float64, error) {
	units := oracleUnits(m, pos)
	n := len(units)
	cov, err := oracleUnitCov(ctx, units, t)
	if err != nil {
		return nil, err
	}
	chol, err := linalg.Cholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("oracle: unit covariance: %w", err)
	}
	out := make([][]float64, to-from)
	scratch := newMCScratchPool(n)
	err = par.ForN(par.Workers(ctx), to-from, func(i int) error {
		sc := scratch.get(seed, from+i)
		defer scratch.put(sc)
		z := sc.buf
		for i := range z {
			z[i] = sc.rng.NormFloat64()
		}
		// delta = L z, over the lower triangle of each factor row.
		shifts := make([]float64, a.Bits+1)
		for i := 0; i < n; i++ {
			d := 0.0
			for j, l := range chol.Data[i*n : i*n+i+1] {
				d += l * z[j]
			}
			shifts[units[i].bit] += d
		}
		for k := range shifts {
			shifts[k] += a.DCSys(k)
		}
		out[i] = shifts
		return nil
	})
	return out, err
}

// RaceEnabled reports a race-detector build to package variation_test.
const RaceEnabled = raceEnabled

// SamplerCase is one layout the exact sampler is checked on.
type SamplerCase struct {
	Name string
	M    *ccmatrix.Matrix
	Pos  Positioner
}

// SamplerCases lists the oracle test layouts: 6-, 8- and 10-bit
// spiral, chessboard and block-chessboard arrays, each on the
// placement grid and routed, plus the 7- and 9-bit routed spiral and
// block-chessboard arrays, whose dummy cells leave the lattice
// incomplete. Exported for the statistical test.
func SamplerCases(t *testing.T, tch *tech.Technology) []SamplerCase {
	t.Helper()
	mk := func(style string, bits int) *ccmatrix.Matrix {
		var m *ccmatrix.Matrix
		var err error
		switch style {
		case "spiral":
			m, err = place.NewSpiral(bits)
		case "chessboard":
			m, err = place.NewChessboard(bits)
		default:
			m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
		}
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var cases []SamplerCase
	for _, bits := range []int{6, 8, 10} {
		for _, style := range []string{"spiral", "chessboard", "block-chessboard"} {
			m := mk(style, bits)
			cases = append(cases,
				SamplerCase{fmt.Sprintf("%d-%s-grid", bits, style), m, GridPositioner(tch)},
				SamplerCase{fmt.Sprintf("%d-%s-routed", bits, style), m, routedLayout(t, m, tch)})
		}
	}
	for _, bits := range []int{7, 9} {
		for _, style := range []string{"spiral", "block-chessboard"} {
			m := mk(style, bits)
			cases = append(cases, SamplerCase{fmt.Sprintf("%d-%s-routed", bits, style), m, routedLayout(t, m, tch)})
		}
	}
	return cases
}

// oracleCapCov is the capacitor-level image of the oracle's jittered
// unit covariance: its blocks summed per capacitor pair.
func oracleCapCov(ctx context.Context, m *ccmatrix.Matrix, pos Positioner, t *tech.Technology) (*linalg.Dense, error) {
	units := oracleUnits(m, pos)
	unit, err := oracleUnitCov(ctx, units, t)
	if err != nil {
		return nil, err
	}
	want := linalg.NewDense(m.Bits + 1)
	for i, ui := range units {
		row := unit.Data[i*len(units) : (i+1)*len(units)]
		for j, uj := range units {
			want.Add(ui.bit, uj.bit, row[j])
		}
	}
	return want, nil
}

// maxRelErr is the largest entrywise |got − want| / |want|.
func maxRelErr(got, want *linalg.Dense) float64 {
	worst := 0.0
	for i, w := range want.Data {
		if e := math.Abs(got.Data[i]-w) / math.Abs(w); e > worst {
			worst = e
		}
	}
	return worst
}

// TestExactSamplerCovMatchesOracle: the matrix the exact sampler
// factors must be the capacitor-level image of the oracle's jittered
// unit covariance — its blocks summed per capacitor pair — within
// 1e-10 relative, with a.Cov from the structured engine and from the
// dense pair sum alike. That is what makes the two samplers draw one
// distribution; a.Cov must come through untouched, and the condition
// gauge must report that matrix's factor.
func TestExactSamplerCovMatchesOracle(t *testing.T) {
	tch := tech.FinFET12()
	ctx := par.WithWorkers(context.Background(), 2)
	for _, c := range SamplerCases(t, tch) {
		t.Run(c.Name, func(t *testing.T) {
			want, err := oracleCapCov(ctx, c.M, c.Pos, tch)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []FFTMode{FFTAuto, FFTOff} {
				sh, err := NewSharedContext(WithFFTMode(ctx, mode), c.M, c.Pos, tch)
				if err != nil {
					t.Fatal(err)
				}
				a := sh.Analysis(0)
				before := a.Cov.Clone()
				tctx, tr := tracedCtx(t)
				if _, err := sh.MonteCarloRangeContext(WithFFTMode(tctx, FFTOff), a, 0, 1, 1); err != nil {
					t.Fatal(err)
				}
				got := samplerCov(tch, a)
				chol, err := linalg.Cholesky(got)
				if err != nil {
					t.Fatal(err)
				}
				cond := tr.Registry().Snapshot().Gauge("ccdac_numeric_cov_cond_estimate", nil)
				if want := linalg.CondEstFromChol(chol); cond != want {
					t.Errorf("mode %d: cond gauge = %g, want the sampler factor's %g", mode, cond, want)
				}
				worst := maxRelErr(got, want)
				if worst > 1e-10 {
					t.Errorf("mode %d: sampler covariance vs summed unit covariance rel err = %g, want <= 1e-10", mode, worst)
				}
				t.Logf("mode %d: sampler covariance vs summed unit covariance rel err = %.3g, cond %.3g", mode, worst, cond)
				for i, v := range before.Data {
					if a.Cov.Data[i] != v {
						t.Fatalf("mode %d: samplerCov wrote a.Cov", mode)
					}
				}
			}
		})
	}
}
