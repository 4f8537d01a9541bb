package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ccdac"
	"ccdac/internal/core"
	"ccdac/internal/dacmodel"
	"ccdac/internal/keycheck"
	"ccdac/internal/leakcheck"
	"ccdac/internal/obs"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

// memPersist records every SaveJob/SaveCheckpoint call in order — the
// test double behind the checkpoint-equivalence and dispatch-order
// assertions. ckErr injects a durable-write failure.
type memPersist struct {
	mu      sync.Mutex
	records []Job
	cks     []Checkpoint
	ckErr   error
}

func (p *memPersist) SaveJob(j Job) {
	p.mu.Lock()
	p.records = append(p.records, j)
	p.mu.Unlock()
}

func (p *memPersist) SaveCheckpoint(j Job, ck Checkpoint) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ckErr != nil {
		return p.ckErr
	}
	p.cks = append(p.cks, ck)
	return nil
}

func (p *memPersist) checkpoints() []Checkpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Checkpoint(nil), p.cks...)
}

// last returns the latest record saved for id.
func (p *memPersist) last(id string) (Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.records) - 1; i >= 0; i-- {
		if p.records[i].ID == id {
			return p.records[i], true
		}
	}
	return Job{}, false
}

// runningOrder is the order jobs first transitioned to running.
func (p *memPersist) runningOrder() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[string]bool{}
	var order []string
	for _, j := range p.records {
		if j.State == StateRunning && !seen[j.ID] {
			seen[j.ID] = true
			order = append(order, j.ID)
		}
	}
	return order
}

func waitJob(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	j, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for job %s: %v (state %s)", id, err, j.State)
	}
	return j
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newQueue(16)
	mk := func(class int, key string) *group {
		if err := q.reserve(func(int) time.Duration { return time.Second }); err != nil {
			t.Fatalf("reserve(%s): %v", key, err)
		}
		return &group{key: key, class: class, items: []*jobState{{}}}
	}
	q.push(mk(classBackground, "bg"))
	q.push(mk(classBatch, "b1"))
	q.push(mk(classInteractive, "i1"))
	q.push(mk(classBatch, "b2"))

	want := []string{"i1", "b1", "b2", "bg"} // class order, FIFO within
	for _, k := range want {
		g, err := q.pop(context.Background())
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		if g.key != k {
			t.Fatalf("pop order: got %q, want %q", g.key, k)
		}
	}
	if d := q.len(); d != 0 {
		t.Fatalf("depth after draining = %d, want 0", d)
	}
}

func TestQueueOverflowAndRelease(t *testing.T) {
	q := newQueue(2)
	ra := func(depth int) time.Duration { return time.Duration(depth) * 3 * time.Second }
	for i := 0; i < 2; i++ {
		if err := q.reserve(ra); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	err := q.reserve(ra)
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("third reserve = %v, want *OverflowError", err)
	}
	if oe.Depth != 2 || oe.RetryAfter != 6*time.Second {
		t.Fatalf("overflow = depth %d retry %s, want depth 2 retry 6s", oe.Depth, oe.RetryAfter)
	}

	// Popping a group releases its jobs' reservations.
	q.push(&group{class: classBatch, items: []*jobState{{}, {}}})
	if _, err := q.pop(context.Background()); err != nil {
		t.Fatalf("pop: %v", err)
	}
	if err := q.reserve(ra); err != nil {
		t.Fatalf("reserve after pop: %v", err)
	}

	q.close()
	if err := q.reserve(ra); !errors.Is(err, ErrClosed) {
		t.Fatalf("reserve after close = %v, want ErrClosed", err)
	}
	if _, err := q.pop(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop after close = %v, want ErrClosed", err)
	}
}

func TestCoalescerFlushPaths(t *testing.T) {
	var mu sync.Mutex
	var flushed []*group
	grab := func() []*group {
		mu.Lock()
		defer mu.Unlock()
		return append([]*group(nil), flushed...)
	}
	c := newCoalescer(3, 40*time.Millisecond, func(g *group) {
		mu.Lock()
		flushed = append(flushed, g)
		mu.Unlock()
	})

	// Size bound: the third compatible job flushes the group at once.
	for i := 0; i < 3; i++ {
		c.submit(&jobState{}, "prefix-a", classBatch)
	}
	got := grab()
	if len(got) != 1 || len(got[0].items) != 3 {
		t.Fatalf("size flush: %d groups, want 1 group of 3", len(got))
	}

	// Non-coalescable jobs (key "") flush immediately as singletons.
	c.submit(&jobState{}, "", classBatch)
	if got := grab(); len(got) != 2 || len(got[1].items) != 1 {
		t.Fatalf("keyless submit did not flush a singleton: %d groups", len(got))
	}

	// Key and class separation plus the time bound: three pending
	// groups (a/batch, b/batch, a/background) each fire on maxWait.
	c.submit(&jobState{}, "prefix-a", classBatch)
	c.submit(&jobState{}, "prefix-b", classBatch)
	c.submit(&jobState{}, "prefix-a", classBackground)
	deadline := time.Now().Add(5 * time.Second)
	for len(grab()) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("time flush never fired: %d groups", len(grab()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, g := range grab()[2:] {
		if len(g.items) != 1 {
			t.Fatalf("separated groups must not merge: group %q/%d has %d items", g.key, g.class, len(g.items))
		}
	}

	// drain flushes everything pending and later submits bypass.
	c.submit(&jobState{}, "prefix-c", classBatch)
	c.drain()
	if got := grab(); len(got) != 6 {
		t.Fatalf("after drain: %d groups, want 6", len(got))
	}
	c.submit(&jobState{}, "prefix-d", classBatch)
	if got := grab(); len(got) != 7 {
		t.Fatalf("submit after drain must flush immediately: %d groups", len(got))
	}
}

func TestManagerGenerateJob(t *testing.T) {
	defer leakcheck.Check(t)()
	m := New(Options{Workers: 1, MaxBatch: 1})
	defer m.Close()

	j, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submitted job = %+v, want queued with an ID", j)
	}
	done := waitJob(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Coalesced != 1 {
		t.Fatalf("solo generate job Coalesced = %d, want 1", done.Coalesced)
	}
	var res GenerateResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Metrics.AreaUm2 <= 0 || res.Metrics.F3dBHz <= 0 {
		t.Fatalf("result metrics = %+v, want positive area and f3dB", res.Metrics)
	}

	if _, ok := m.Get("nope"); ok {
		t.Fatal("Get of unknown ID succeeded")
	}
	if _, ok := m.Cancel("nope"); ok {
		t.Fatal("Cancel of unknown ID succeeded")
	}
	if _, err := m.Wait(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait of unknown ID = %v, want ErrNotFound", err)
	}
}

// TestManagerPriorityDispatch: with the single worker slot held (via
// Do, the batch-fanout admission path), queued jobs dispatch in class
// order — interactive before background — regardless of submit order.
func TestManagerPriorityDispatch(t *testing.T) {
	defer leakcheck.Check(t)()
	mp := &memPersist{}
	m := New(Options{Workers: 1, MaxBatch: 1, Persist: mp})
	defer m.Close()

	held := make(chan struct{})
	release := make(chan struct{})
	var doWG sync.WaitGroup
	doWG.Add(1)
	go func() {
		defer doWG.Done()
		m.Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	blocker, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Let the dispatcher pop the blocker group (it then parks waiting
	// for the held worker slot), so the next submissions queue behind it.
	deadline := time.Now().Add(5 * time.Second)
	for m.q.len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never popped the blocker group")
		}
		time.Sleep(2 * time.Millisecond)
	}
	bg, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4, Priority: "background"})
	if err != nil {
		t.Fatal(err)
	}
	ia, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4, Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	doWG.Wait()
	for _, id := range []string{blocker.ID, bg.ID, ia.ID} {
		if j := waitJob(t, m, id); j.State != StateDone {
			t.Fatalf("job %s finished %s (%s), want done", id, j.State, j.Error)
		}
	}
	want := []string{blocker.ID, ia.ID, bg.ID}
	got := mp.runningOrder()
	if len(got) != len(want) {
		t.Fatalf("running order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("running order %v, want %v (interactive before background)", got, want)
		}
	}
}

// TestCoalescedMatchesSolo is the micro-batching equivalence contract:
// compatible yield jobs coalesced onto one shared prefix produce
// byte-identical results — same sample hash, same payload — as the
// same jobs run solo.
func TestCoalescedMatchesSolo(t *testing.T) {
	defer leakcheck.Check(t)()
	const n = 4
	specFor := func(seed int64) Spec {
		return Spec{Kind: KindYield, Bits: 6, Samples: 50, Seed: seed, SpecINL: 0.05}
	}
	run := func(maxBatch int) map[int64]Job {
		m := New(Options{Workers: 2, MaxBatch: maxBatch, MaxWait: 500 * time.Millisecond})
		defer m.Close()
		ids := make(map[int64]string, n)
		for seed := int64(1); seed <= n; seed++ {
			j, err := m.Submit(specFor(seed))
			if err != nil {
				t.Fatalf("submit seed %d: %v", seed, err)
			}
			ids[seed] = j.ID
		}
		out := make(map[int64]Job, n)
		for seed, id := range ids {
			j := waitJob(t, m, id)
			if j.State != StateDone {
				t.Fatalf("seed %d finished %s (%s), want done", seed, j.State, j.Error)
			}
			out[seed] = j
		}
		return out
	}

	solo := run(1)
	coal := run(n)
	for seed := int64(1); seed <= n; seed++ {
		s, c := solo[seed], coal[seed]
		if s.Coalesced != 1 {
			t.Errorf("solo seed %d Coalesced = %d, want 1", seed, s.Coalesced)
		}
		if c.Coalesced != n {
			t.Errorf("coalesced seed %d Coalesced = %d, want %d", seed, c.Coalesced, n)
		}
		if !bytes.Equal(s.Result, c.Result) {
			t.Errorf("seed %d: coalesced result differs from solo:\nsolo:      %s\ncoalesced: %s",
				seed, s.Result, c.Result)
		}
		var yr YieldResult
		if err := json.Unmarshal(c.Result, &yr); err != nil {
			t.Fatalf("seed %d result: %v", seed, err)
		}
		if yr.Samples != 50 || yr.SampleHash == "" {
			t.Errorf("seed %d: samples %d hash %q, want 50 samples and a hash", seed, yr.Samples, yr.SampleHash)
		}
	}
}

// TestYieldFFTOffDrawsExact: a yield job's fft field still selects its
// sampler. On a 6-bit spiral, whose routed lattice the spectral
// sampler serves, an fft:"off" job draws from the exact sampler over
// the dense covariance: its sample_hash is the one
// yield.BlockSharedContext reaches under FFTOff over an independently
// built prefix, and it differs from the auto job's. Each job's
// jobs.prefix span names the engine that built its covariance.
func TestYieldFFTOffDrawsExact(t *testing.T) {
	defer leakcheck.Check(t)()
	bus := obs.NewBus()
	sub := bus.Subscribe("", 1<<14)
	defer sub.Close()
	m := New(Options{Workers: 1, MaxBatch: 1, Bus: bus})
	defer m.Close()
	hashOf := func(j Job) string {
		t.Helper()
		if j.State != StateDone {
			t.Fatalf("job %s finished %s (%s), want done", j.ID, j.State, j.Error)
		}
		var yr YieldResult
		if err := json.Unmarshal(j.Result, &yr); err != nil {
			t.Fatal(err)
		}
		return yr.SampleHash
	}
	spec := Spec{Kind: KindYield, Bits: 6, Samples: 200, Seed: 5, SpecINL: 0.05, FFT: "off"}
	off, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	autoSpec := spec
	autoSpec.FFT = ""
	auto, err := m.Submit(autoSpec)
	if err != nil {
		t.Fatal(err)
	}
	offHash, autoHash := hashOf(waitJob(t, m, off.ID)), hashOf(waitJob(t, m, auto.ID))

	ctx := variation.WithFFTMode(context.Background(), variation.FFTOff)
	cfg, tch, err := spec.withDefaults().coreConfig(0, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := variation.NewSharedContext(ctx, res.Placement, res.Layout.CellCenter, tch)
	if err != nil {
		t.Fatal(err)
	}
	var tally yield.Tally
	if err := yield.BlockSharedContext(ctx, sh, sh.Analysis(math.Pi/4),
		yield.Spec{MaxAbsDNL: spec.SpecINL, MaxAbsINL: spec.SpecINL},
		dacmodel.Parasitics{CTSfF: res.Electrical.CTSfF}, 0, spec.Samples, spec.Seed, &tally); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%016x", tally.Hash); offHash != want {
		t.Errorf("fft:\"off\" job sample_hash = %s, want the exact sampler's %s", offHash, want)
	}
	if offHash == autoHash {
		t.Errorf("fft:\"off\" and auto jobs share sample_hash %s: the selector did not reach the sampler", offHash)
	}

	prefixAttrs := map[string]map[string]string{}
	for len(sub.Events()) > 0 {
		if ev := <-sub.Events(); ev.Type == obs.EventSpanEnd && ev.Name == "jobs.prefix" {
			prefixAttrs[ev.Tag] = ev.Attrs
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("bus dropped %d events", sub.Dropped())
	}
	for id, want := range map[string]map[string]string{
		off.ID:  {"cov_engine": "dense", "cov_dense_reason": "fft off"},
		auto.ID: {"cov_engine": "quadforms", "cov_lattice": "separable"},
	} {
		for k, v := range want {
			if got := prefixAttrs[id][k]; got != v {
				t.Errorf("job %s jobs.prefix span %s = %q, want %q (attrs %v)", id, k, got, v, prefixAttrs[id])
			}
		}
	}
}

// TestCheckpointResumeEquivalence: a job resumed from a mid-stream
// checkpoint on a fresh manager finishes with a payload byte-identical
// to the uninterrupted run — the crash-recovery contract, minus the
// process kill (internal/serve's TestJobCrashResume adds that).
func TestCheckpointResumeEquivalence(t *testing.T) {
	defer leakcheck.Check(t)()
	spec := Spec{Kind: KindYield, Bits: 5, Samples: 120, Seed: 3, SpecINL: 0.05, CheckpointEvery: 25}
	mp := &memPersist{}
	m1 := New(Options{Workers: 1, MaxBatch: 1, Persist: mp})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitJob(t, m1, j1.ID)
	m1.Close()
	if ref.State != StateDone {
		t.Fatalf("reference run finished %s (%s), want done", ref.State, ref.Error)
	}
	cks := mp.checkpoints()
	if len(cks) != 4 { // 25, 50, 75, 100; the final block needs none
		t.Fatalf("reference run saved %d checkpoints, want 4", len(cks))
	}
	if st := m1.Stats(); st.Checkpoints != 4 {
		t.Fatalf("stats.Checkpoints = %d, want 4", st.Checkpoints)
	}

	ck := cks[1] // resume from samples [0, 50) done
	if ck.Done != 50 || ck.JobID != ref.ID {
		t.Fatalf("checkpoint[1] = %+v, want done=50 for job %s", ck, ref.ID)
	}
	m2 := New(Options{Workers: 1, MaxBatch: 1, Persist: &memPersist{}})
	defer m2.Close()
	m2.Restore(Job{ID: ref.ID, Spec: ref.Spec, State: StateRunning, CreatedMS: ref.CreatedMS}, &ck)
	j2 := waitJob(t, m2, ref.ID)
	if j2.State != StateDone {
		t.Fatalf("resumed run finished %s (%s), want done", j2.State, j2.Error)
	}
	if !j2.Resumed || j2.DoneSamples != 120 {
		t.Fatalf("resumed job = resumed %v, done %d samples; want resumed with all 120", j2.Resumed, j2.DoneSamples)
	}
	if !bytes.Equal(j2.Result, ref.Result) {
		t.Fatalf("resumed result differs from uninterrupted run:\nref:     %s\nresumed: %s", ref.Result, j2.Result)
	}
	if st := m2.Stats(); st.Resumed != 1 {
		t.Fatalf("stats.Resumed = %d, want 1", st.Resumed)
	}
}

// TestCheckpointStreamVersion: a restored job resumes only from a
// checkpoint drawn on this build's variation.SampleStream. One from
// another stream — or an older record with no stream field — is
// logged and dropped: the job restarts at sample 0 with its progress
// reset and still ends with the solo run's sample hash. A matching
// checkpoint resumes mid-stream.
func TestCheckpointStreamVersion(t *testing.T) {
	defer leakcheck.Check(t)()
	spec := Spec{Kind: KindYield, Bits: 5, Samples: 120, Seed: 3, SpecINL: 0.05, CheckpointEvery: 25}
	mp := &memPersist{}
	m1 := New(Options{Workers: 1, MaxBatch: 1, Persist: mp})
	j1, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	solo := waitJob(t, m1, j1.ID)
	m1.Close()
	if solo.State != StateDone {
		t.Fatalf("solo run finished %s (%s), want done", solo.State, solo.Error)
	}
	var soloYR YieldResult
	if err := json.Unmarshal(solo.Result, &soloYR); err != nil {
		t.Fatal(err)
	}
	ck := mp.checkpoints()[1] // samples [0, 50) done
	if ck.Stream != variation.SampleStream || ck.Done != 50 {
		t.Fatalf("checkpoint = stream %d done %d, want stream %d done 50", ck.Stream, ck.Done, variation.SampleStream)
	}
	other := ck
	other.Stream = variation.SampleStream - 1
	// An older daemon's record: the same checkpoint without the field.
	var fields map[string]json.RawMessage
	raw, _ := json.Marshal(ck)
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "stream")
	raw, _ = json.Marshal(fields)
	var legacy Checkpoint
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		ck     Checkpoint
		resume bool
	}{
		{"matching", ck, true},
		{"other stream", other, false},
		{"no stream field", legacy, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logs bytes.Buffer
			mp2 := &memPersist{}
			m2 := New(Options{Workers: 1, MaxBatch: 1, Persist: mp2, Logger: log.New(&logs, "", 0)})
			defer m2.Close()
			ck := tc.ck
			// The persisted record is ahead of its checkpoint, as after a
			// crash between a block's record and the next checkpoint.
			m2.Restore(Job{ID: solo.ID, Spec: solo.Spec, State: StateRunning, CreatedMS: solo.CreatedMS,
				DoneSamples: 75, Checkpoints: 3}, &ck)
			mp2.mu.Lock()
			restored := mp2.records[0]
			mp2.mu.Unlock()
			wantDone, wantCks, wantSaved := 0, 0, 4 // restart: 25, 50, 75, 100
			if tc.resume {
				wantDone, wantCks, wantSaved = 50, 2, 2 // resume: 75, 100
			}
			if restored.DoneSamples != wantDone || restored.Checkpoints != wantCks {
				t.Errorf("restored record = done %d, checkpoints %d; want %d, %d",
					restored.DoneSamples, restored.Checkpoints, wantDone, wantCks)
			}
			j := waitJob(t, m2, solo.ID)
			if j.State != StateDone {
				t.Fatalf("restored run finished %s (%s), want done", j.State, j.Error)
			}
			var yr YieldResult
			if err := json.Unmarshal(j.Result, &yr); err != nil {
				t.Fatal(err)
			}
			if yr.SampleHash != soloYR.SampleHash || !bytes.Equal(j.Result, solo.Result) {
				t.Errorf("restored result differs from the solo run:\nsolo:     %s\nrestored: %s", solo.Result, j.Result)
			}
			if got := len(mp2.checkpoints()); got != wantSaved {
				t.Errorf("restored run saved %d checkpoints, want %d", got, wantSaved)
			}
			if restarted := strings.Contains(logs.String(), "restarting at sample 0"); restarted == tc.resume {
				t.Errorf("restart logged = %v, want %v (log %q)", restarted, !tc.resume, logs.String())
			}
		})
	}
}

// TestRestoreTerminalJobIsHistory: restoring a done record makes it
// queryable without re-running it.
func TestRestoreTerminalJobIsHistory(t *testing.T) {
	defer leakcheck.Check(t)()
	m := New(Options{Workers: 1})
	defer m.Close()
	m.Restore(Job{ID: "jhist", Spec: Spec{Kind: KindGenerate, Bits: 4}, State: StateDone,
		Result: json.RawMessage(`{"ok":true}`)}, nil)
	j, ok := m.Get("jhist")
	if !ok || j.State != StateDone || string(j.Result) != `{"ok":true}` {
		t.Fatalf("restored terminal job = %+v, want intact done record", j)
	}
	if j, err := m.Wait(context.Background(), "jhist"); err != nil || j.State != StateDone {
		t.Fatalf("Wait on restored terminal job = %v, %v", j.State, err)
	}
	if st := m.Stats(); st.Submitted != 0 || st.Resumed != 0 {
		t.Fatalf("terminal restore counted as submission: %+v", st)
	}
}

// TestCheckpointFailureFailsJob: a checkpoint that cannot be made
// durable fails the job — a checkpoint that is not durable is not a
// checkpoint.
func TestCheckpointFailureFailsJob(t *testing.T) {
	defer leakcheck.Check(t)()
	mp := &memPersist{ckErr: errors.New("disk gone")}
	m := New(Options{Workers: 1, MaxBatch: 1, Persist: mp})
	defer m.Close()
	j, err := m.Submit(Spec{Kind: KindYield, Bits: 5, Samples: 30, Seed: 1, SpecINL: 0.05, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m, j.ID)
	if done.State != StateFailed {
		t.Fatalf("job with failing checkpoints finished %s, want failed", done.State)
	}
	if want := "checkpoint"; !bytes.Contains([]byte(done.Error), []byte(want)) {
		t.Fatalf("error %q does not mention %q", done.Error, want)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	defer leakcheck.Check(t)()
	m := New(Options{Workers: 1, MaxBatch: 1})
	defer m.Close()

	// Queued cancel: hold the only worker slot so the job cannot start.
	held := make(chan struct{})
	release := make(chan struct{})
	var doWG sync.WaitGroup
	doWG.Add(1)
	go func() {
		defer doWG.Done()
		m.Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	j, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	cj, ok := m.Cancel(j.ID)
	if !ok || cj.State != StateCanceled {
		t.Fatalf("queued cancel = %v (%s), want immediate canceled", ok, cj.State)
	}
	close(release)
	doWG.Wait()
	if got := waitJob(t, m, j.ID); got.State != StateCanceled {
		t.Fatalf("canceled-queued job finished %s, want canceled", got.State)
	}

	// Running cancel: a long Monte-Carlo job interrupts via its context.
	long, err := m.Submit(Spec{Kind: KindYield, Bits: 6, Samples: 50_000_000, Seed: 1,
		SpecINL: 0.05, CheckpointEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, _ := m.Get(long.ID)
		if got.State == StateRunning {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("long job reached %s before it could be canceled", got.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := m.Cancel(long.ID); !ok {
		t.Fatal("cancel of running job not found")
	}
	got := waitJob(t, m, long.ID)
	if got.State != StateCanceled {
		t.Fatalf("canceled-running job finished %s (%s), want canceled", got.State, got.Error)
	}
	if st := m.Stats(); st.Canceled != 2 {
		t.Fatalf("stats.Canceled = %d, want 2", st.Canceled)
	}
}

// slowPersist takes 20 ms to save a terminal record, so a manager
// that released a job's waiters before the save returned is caught.
type slowPersist struct{ memPersist }

func (p *slowPersist) SaveJob(j Job) {
	if j.State.Terminal() {
		time.Sleep(20 * time.Millisecond)
	}
	p.memPersist.SaveJob(j)
}

// TestTerminalRecordSavedBeforeWait: on every path to a terminal
// state — done, failed, canceled while queued, canceled while running
// — the terminal record is saved before Wait returns the job.
func TestTerminalRecordSavedBeforeWait(t *testing.T) {
	defer leakcheck.Check(t)()
	mp := &slowPersist{}
	m := New(Options{Workers: 1, MaxBatch: 1, Persist: mp})
	defer m.Close()
	check := func(id string, want State) {
		t.Helper()
		got := waitJob(t, m, id)
		rec, ok := mp.last(id)
		if got.State != want || !ok || rec.State != want {
			t.Errorf("job %s: Wait = %s, last saved record = %s (%v); want both %s", id, got.State, rec.State, ok, want)
		}
	}

	done, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4, SkipNonlinearity: true})
	if err != nil {
		t.Fatal(err)
	}
	check(done.ID, StateDone)

	// Queued cancel: hold the only worker slot so the job cannot start.
	held, release := make(chan struct{}), make(chan struct{})
	var doWG sync.WaitGroup
	doWG.Add(1)
	go func() {
		defer doWG.Done()
		m.Do(context.Background(), func() error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	queued, err := m.Submit(Spec{Kind: KindGenerate, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	go m.Cancel(queued.ID) // Wait must not return before Cancel saved
	check(queued.ID, StateCanceled)
	close(release)
	doWG.Wait()

	// Running cancel: a long Monte-Carlo job stops at its context.
	long, err := m.Submit(Spec{Kind: KindYield, Bits: 6, Samples: 50_000_000, Seed: 1, SpecINL: 0.05, CheckpointEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if got, _ := m.Get(long.ID); got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started running")
		}
	}
	m.Cancel(long.ID)
	check(long.ID, StateCanceled)

	// Failure: a checkpoint that cannot be made durable fails the job.
	mp.mu.Lock()
	mp.ckErr = errors.New("disk gone")
	mp.mu.Unlock()
	failed, err := m.Submit(Spec{Kind: KindYield, Bits: 5, Samples: 30, Seed: 1, SpecINL: 0.05, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	check(failed.ID, StateFailed)
}

// TestSubmitOverflow: with the queue full of jobs parked in the
// coalescer (their reservations are held from submission, not flush),
// the next submission fails fast with depth and a Retry-After hint.
func TestSubmitOverflow(t *testing.T) {
	defer leakcheck.Check(t)()
	m := New(Options{Workers: 1, QueueDepth: 1, MaxBatch: 16, MaxWait: time.Hour})
	defer m.Close()
	if _, err := m.Submit(Spec{Kind: KindYield, Bits: 6, Samples: 10, Seed: 1, SpecINL: 0.05}); err != nil {
		t.Fatal(err)
	}
	_, err := m.Submit(Spec{Kind: KindYield, Bits: 6, Samples: 10, Seed: 2, SpecINL: 0.05})
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("submit over capacity = %v, want *OverflowError", err)
	}
	if oe.Depth != 1 || oe.RetryAfter < time.Second {
		t.Fatalf("overflow = depth %d retry %s, want depth 1 and retry >= 1s", oe.Depth, oe.RetryAfter)
	}
	if st := m.Stats(); st.Overflow != 1 || st.QueueDepth != 1 {
		t.Fatalf("stats = overflow %d depth %d, want 1 and 1", st.Overflow, st.QueueDepth)
	}
}

func TestSpecValidation(t *testing.T) {
	m := New(Options{})
	defer m.Close()
	bad := []Spec{
		{Kind: "transmute", Bits: 6},
		{Kind: KindYield, Bits: 6, Samples: 10}, // no spec bound
		{Kind: KindYield, Bits: 6, Samples: 10, SpecINL: 0.05, CheckpointEvery: -1},
		{Kind: KindGenerate, Bits: 6, Priority: "urgent"},
		{Kind: KindGenerate, Bits: 6, FFT: "sideways"},
	}
	for _, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid specs consumed queue capacity: %+v", st)
	}
}

// TestSubmitRejectsOutOfRangeConfig: both job kinds are held to the
// public ccdac.Config bounds at submission — an out-of-range field is
// a config error before the job is queued, never a failure (or a
// silently accepted run) later.
func TestSubmitRejectsOutOfRangeConfig(t *testing.T) {
	m := New(Options{})
	defer m.Close()
	bad := map[string]Spec{
		"bits":            {Bits: 99},
		"bits low":        {Bits: 1},
		"max_parallel":    {Bits: 6, MaxParallel: ccdac.MaxParallelWires + 1},
		"core_bits":       {Bits: 6, Style: string(ccdac.BlockChessboard), CoreBits: 3, BlockCells: 2},
		"block_cells":     {Bits: 6, Style: string(ccdac.BlockChessboard), CoreBits: 2, BlockCells: 65},
		"anneal_moves":    {Bits: 6, Style: string(ccdac.Annealed), AnnealMoves: -1},
		"anneal_moves hi": {Bits: 6, Style: string(ccdac.Annealed), AnnealMoves: ccdac.MaxAnnealMoves + 1},
		"tech_node":       {Bits: 6, TechNode: "bulk7"},
		"fft":             {Bits: 6, FFT: "sideways"},
	}
	for _, kind := range []string{KindGenerate, KindYield} {
		for name, spec := range bad {
			spec.Kind = kind
			if kind == KindYield {
				spec.Samples, spec.SpecINL = 10, 0.05
			}
			_, err := m.Submit(spec)
			if !errors.Is(err, ccdac.ErrConfig) {
				t.Errorf("%s job, bad %s: Submit err = %v, want a config error", kind, name, err)
			}
		}
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Fatalf("out-of-range specs were queued: %+v", st)
	}
}

// TestPrefixKeyTailIndependence: tail fields must not split groups;
// prefix fields must.
func TestPrefixKeyTailIndependence(t *testing.T) {
	base := Spec{Kind: KindYield, Bits: 8, Samples: 100, Seed: 1, SpecINL: 0.01}.withDefaults()
	k := base.prefixKey()

	tailVariant := base
	tailVariant.Seed, tailVariant.Samples, tailVariant.SpecINL, tailVariant.ThetaDeg = 99, 7, 0.5, 30
	if tailVariant.prefixKey() != k {
		t.Fatal("tail fields (seed/samples/spec/theta) changed the prefix key")
	}

	prefixVariant := base
	prefixVariant.Bits = 9
	if prefixVariant.prefixKey() == k {
		t.Fatal("bits change did not change the prefix key")
	}
	styleVariant := base
	styleVariant.Style = "chessboard"
	if styleVariant.prefixKey() == k {
		t.Fatal("style change did not change the prefix key")
	}
}

// TestPrefixKeyCompleteness: every Spec field moves the coalescing
// prefix key of a yield job under some style, or is excluded here with
// a reason.
func TestPrefixKeyCompleteness(t *testing.T) {
	yieldTail := "yield tail: a per-job Monte-Carlo knob the group fans out"
	generateTail := "generate tail: zeroed for yield jobs, and generate jobs never coalesce"
	keycheck.Fields(t, []Spec{
		{Kind: KindYield, Bits: 8, SpecINL: 0.01},
		{Kind: KindYield, Bits: 8, SpecINL: 0.01, Style: string(ccdac.BlockChessboard)},
		{Kind: KindYield, Bits: 8, SpecINL: 0.01, Style: string(ccdac.Annealed)},
	}, func(s Spec) string { return s.withDefaults().prefixKey() }, map[string]string{
		"Kind":             "only yield jobs are keyed; the key is never built for other kinds",
		"Priority":         "a scheduling class, not an input of the computation",
		"ThetaSteps":       generateTail,
		"SkipNonlinearity": generateTail,
		"BestBC":           generateTail,
		"Samples":          yieldTail,
		"Seed":             yieldTail,
		"SpecINL":          yieldTail,
		"SpecDNL":          yieldTail,
		"ThetaDeg":         yieldTail,
		"CheckpointEvery":  "checkpoint cadence; outputs are identical at any cadence",
	})
}
