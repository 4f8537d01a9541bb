package variation

import (
	"context"
	"math/rand"
	"testing"

	"ccdac/internal/fftk"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// TestScratchStreamMatchesFreshSource: a pooled RNG reseeded onto a
// sample's stream must produce exactly the stream a freshly allocated
// rand.New(rand.NewSource(seed)) would — including after the pooled
// one has been drained to an arbitrary point by an earlier sample.
func TestScratchStreamMatchesFreshSource(t *testing.T) {
	pool := newMCScratchPool(4)
	for _, seed := range []int64{0, 1, -1, 7919, 1 << 40, -(1 << 62)} {
		for _, s := range []int{0, 1, 17, 999_999} {
			sc := pool.get(seed, s)
			fresh := rand.New(rand.NewSource(mcStreamSeed(seed, s)))
			for i := 0; i < 300; i++ {
				if got, want := sc.rng.NormFloat64(), fresh.NormFloat64(); got != want {
					t.Fatalf("seed %d sample %d draw %d: pooled %v, fresh %v", seed, s, i, got, want)
				}
			}
			// Leave the pooled stream mid-way for the next reseed.
			sc.rng.Int63n(int64(s) + 3)
			pool.put(sc)
		}
	}
}

// TestSamplerDrawZeroAllocs guards the per-sample draw of both
// spectral samplers: beyond the caller's result row it allocates
// nothing — the field, the scratch spectra and the reseeded RNG are
// all pooled.
func TestSamplerDrawZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tch := tech.FinFET12()
	m, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	l, err := route.Route(m, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pos  Positioner
	}{
		{"regular", GridPositioner(tch)},
		{"separable", l.CellCenter},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ms := newMCSampler(context.Background(), gatherCells(m, c.pos), tch)
			if ms == nil {
				t.Fatal("spectral sampler unavailable")
			}
			_, semi := ms.sampler.(*fftk.SemiEmbedding)
			if semi != (c.name == "separable") {
				t.Fatalf("sampler %T, want the %s embedding", ms.sampler, c.name)
			}
			a, err := analyze(context.Background(), m, c.pos, tch, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]float64, a.Bits+1)
			s := 0
			if allocs := testing.AllocsPerRun(50, func() {
				clear(row)
				ms.draw(row, a, 3, s)
				s++
			}); allocs != 0 {
				t.Errorf("draw allocates %v per sample, want 0", allocs)
			}
		})
	}
}
