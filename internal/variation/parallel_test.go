package variation

import (
	"context"
	"errors"
	"math"
	"testing"

	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// withWorkers returns a context carrying an explicit worker budget.
func withWorkers(n int) context.Context {
	return par.WithWorkers(context.Background(), n)
}

// TestCovarianceSerialParallelBitwise: the parallel covariance build is
// bitwise identical to the serial one — each matrix entry is summed in
// the same order regardless of which worker computes its row, and memo
// values are key-derived. This is stronger than the 1e-12 bound the
// acceptance criterion asks for.
func TestCovarianceSerialParallelBitwise(t *testing.T) {
	m, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	serial, err := analyze(withWorkers(-1), m, GridPositioner(tch), tch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := analyze(withWorkers(workers), m, GridPositioner(tch), tch, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := m.Bits + 1
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if s, p := serial.Cov.At(j, k), parallel.Cov.At(j, k); s != p {
					t.Fatalf("workers=%d: Cov(%d,%d) = %.17g parallel vs %.17g serial", workers, j, k, p, s)
				}
			}
		}
	}
}

// TestCovarianceMatchesNaiveReference re-derives the covariance with
// the seed's formulation — math.Pow(rho_u, dist/Lc) over every cell
// pair, no memo, no symmetry halving — and checks the optimized build
// against it. The 1e-9 bound absorbs the d² quantization (sub-nm in
// distance) and exp-vs-pow rounding.
func TestCovarianceMatchesNaiveReference(t *testing.T) {
	m, err := place.NewChessboard(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	pos := GridPositioner(tch)
	a, err := analyze(context.Background(), m, pos, tch, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := gatherCells(m, pos)
	sigmaU2 := tch.SigmaU() * tch.SigmaU()
	for j := 0; j <= m.Bits; j++ {
		for k := j; k <= m.Bits; k++ {
			var sum float64
			for _, cj := range g.caps[j] {
				for _, ck := range g.caps[k] {
					sum += math.Pow(tch.Mis.RhoU, cj.p.Dist(ck.p)/tch.Mis.LcUm)
				}
			}
			want := sigmaU2 * sum
			got := a.Cov.At(j, k)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Errorf("Cov(%d,%d) = %.15g, naive reference %.15g", j, k, got, want)
			}
		}
	}
}

// TestSweepThetaSerialParallelBitwise: every analysis of the sweep is
// identical at any worker count, and the covariance stays shared.
func TestSweepThetaSerialParallelBitwise(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	serial, err := SweepThetaContext(withWorkers(-1), m, GridPositioner(tch), tch, 12)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepThetaContext(withWorkers(8), m, GridPositioner(tch), tch, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].ThetaRad != parallel[i].ThetaRad {
			t.Fatalf("step %d: theta %g vs %g", i, parallel[i].ThetaRad, serial[i].ThetaRad)
		}
		for b := range serial[i].CStar {
			if serial[i].CStar[b] != parallel[i].CStar[b] {
				t.Fatalf("step %d bit %d: CStar %.17g vs %.17g", i, b, parallel[i].CStar[b], serial[i].CStar[b])
			}
		}
		if parallel[i].Cov != parallel[0].Cov {
			t.Fatal("parallel sweep no longer shares one covariance")
		}
	}
}

// TestMonteCarloIdenticalAcrossWorkerCounts: per-sample RNG streams
// make a fixed-seed run byte-identical at any worker count, prefix and
// sampler set-up included.
func TestMonteCarloIdenticalAcrossWorkerCounts(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	const samples, seed = 40, 12345
	draw := func(ctx context.Context) [][]float64 {
		t.Helper()
		sh, err := NewSharedContext(ctx, m, GridPositioner(tch), tch)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sh.MonteCarloRangeContext(ctx, sh.Analysis(0), 0, samples, seed)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, parallel := draw(withWorkers(-1)), draw(withWorkers(8))
	for s := range serial {
		for k := range serial[s] {
			if serial[s][k] != parallel[s][k] {
				t.Fatalf("sample %d bit %d: %.17g parallel vs %.17g serial", s, k, parallel[s][k], serial[s][k])
			}
		}
	}
}

// TestMonteCarloCancellation: a canceled context aborts the sample
// loop with a wrapped context error instead of returning partial data.
func TestMonteCarloCancellation(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	pos := GridPositioner(tch)
	sh, err := NewSharedContext(context.Background(), m, pos, tch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.MonteCarloRangeContext(ctx, sh.Analysis(0), 0, 100, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("MonteCarloRangeContext on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := NewSharedContext(ctx, m, pos, tch); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSharedContext on canceled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := SweepThetaContext(ctx, m, pos, tch, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepThetaContext on canceled ctx: err = %v, want context.Canceled", err)
	}
}
