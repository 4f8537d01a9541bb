package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ccdac/internal/fault"
	"ccdac/internal/keycheck"
	"ccdac/internal/memo"
	"ccdac/internal/place"
	"ccdac/internal/tech"
)

// stageCaches names every memo cache a memo-enabled run consults.
var stageCaches = []string{"core_place", "core_route", "core_extract", "variation_cov"}

// cacheStats returns the registered stage cache stats by name.
func cacheStats() map[string]memo.Stats {
	out := map[string]memo.Stats{}
	for _, st := range memo.Snapshot() {
		out[st.Name] = st
	}
	return out
}

// TestMemoStagePanicStoresNothing: with memoization armed, a panic in
// a stage computed under memo.Cache.Do (placement, routing, extraction,
// and the covariance build inside analysis) still surfaces as that
// stage's error, leaves nothing in the stage's cache, and the next run
// recomputes the stage.
func TestMemoStagePanicStoresNothing(t *testing.T) {
	cfg := Config{Bits: 6, Style: place.Spiral, MaxParallel: 2, ThetaSteps: 2, Memo: true}
	for _, tc := range []struct{ point, stage, cache string }{
		{fault.StagePlace, fault.StagePlace, "core_place"},
		{fault.StageRoute, fault.StageRoute, "core_route"},
		{fault.StageExtract, fault.StageExtract, "core_extract"},
		{fault.StageFFT, fault.StageAnalyze, "variation_cov"},
	} {
		t.Run(tc.point, func(t *testing.T) {
			defer fault.Reset()
			memo.PurgeAll()
			fault.EnablePanic(tc.point, 0, "memo drill")
			_, err := RunContext(context.Background(), cfg)
			if !fault.Fired(tc.point) {
				t.Fatalf("fault at %s never fired", tc.point)
			}
			var se *StageError
			if !errors.As(err, &se) || se.Stage != tc.stage {
				t.Fatalf("err = %v, want a %s StageError", err, tc.stage)
			}
			if msg := err.Error(); !strings.Contains(msg, "memo drill") || !strings.Contains(msg, "goroutine") {
				t.Errorf("error lost the panic value or stack: %v", err)
			}
			failed := cacheStats()[tc.cache]
			if failed.Entries != 0 || failed.Waiters != 0 {
				t.Fatalf("%s after the panic: %+v, want no entries and no waiters", tc.cache, failed)
			}

			fault.Reset()
			if _, err := RunContext(context.Background(), cfg); err != nil {
				t.Fatalf("run after the panic: %v", err)
			}
			again := cacheStats()[tc.cache]
			if again.Misses <= failed.Misses || again.Entries == 0 {
				t.Errorf("%s: misses %d -> %d, entries %d; want a recomputed, stored stage",
					tc.cache, failed.Misses, again.Misses, again.Entries)
			}
		})
	}
}

// TestMemoConcurrentRunsComputeOnce: two concurrent memo-enabled runs
// of one configuration compute each stage entry once between them —
// the same computations one run alone pays — and agree bit for bit.
func TestMemoConcurrentRunsComputeOnce(t *testing.T) {
	cfg := Config{Bits: 8, Style: place.Spiral, MaxParallel: 2, ThetaSteps: 4, Memo: true}
	misses := func() map[string]int64 {
		out := map[string]int64{}
		for name, st := range cacheStats() {
			out[name] = st.Misses
		}
		return out
	}

	memo.PurgeAll()
	before := misses()
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	solo := misses()
	want := map[string]int64{}
	for _, name := range stageCaches {
		want[name] = solo[name] - before[name]
		if want[name] == 0 {
			t.Fatalf("solo run computed nothing in %s", name)
		}
	}

	memo.PurgeAll()
	before = misses()
	var wg sync.WaitGroup
	start := make(chan struct{})
	res := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res[i], errs[i] = RunContext(context.Background(), cfg)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	after := misses()
	for _, name := range stageCaches {
		if got := after[name] - before[name]; got != want[name] {
			t.Errorf("%s: two concurrent runs computed %d entries, want %d (one run's worth)", name, got, want[name])
		}
	}
	a, b := res[0], res[1]
	if fmt.Sprint(a.Par, a.F3dBHz, *a.NL) != fmt.Sprint(b.Par, b.F3dBHz, *b.NL) {
		t.Errorf("concurrent runs disagree:\n%v %v %+v\n%v %v %+v", a.Par, a.F3dBHz, *a.NL, b.Par, b.F3dBHz, *b.NL)
	}
}

// TestStageKeyCompleteness: every technology field, nested layers,
// unit cell and mismatch model included, moves the routed-layout or
// extraction key, or is excluded here with a reason.
func TestStageKeyCompleteness(t *testing.T) {
	mismatch := "mismatch statistics: read only by the covariance build, which variation keys"
	keycheck.Fields(t, []tech.Technology{*tech.FinFET12(), *tech.Bulk65()}, func(tc tech.Technology) string {
		rk := routeKey("placement", []int{1, 1, 2}, &tc)
		return rk + "/" + extractKey(rk, &tc)
	}, map[string]string{
		"Name":                      "a label",
		"Layers[].Name":             "a label",
		"Mis.Af2Pct":                mismatch,
		"Mis.AfRefFF":               mismatch,
		"Mis.RhoU":                  mismatch,
		"Mis.LcUm":                  mismatch,
		"Mis.GradientPPMPerUm":      "gradient term: applied per angle after the cached stages",
		"Mis.QuadGradientPPMPerUm2": "gradient term: applied per angle after the cached stages",
		"VRef":                      "read only by the nonlinearity model after the cached stages",
	})
}
