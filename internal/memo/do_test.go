package memo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gated returns a compute that counts its runs and blocks until
// release closes (or its context ends), then returns val.
func gated(runs *atomic.Int64, release <-chan struct{}, val any) func(context.Context) (any, int64, error) {
	return func(ctx context.Context) (any, int64, error) {
		runs.Add(1)
		select {
		case <-release:
			return val, 8, nil
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
}

// TestDoStatuses: the first caller computes (Cold), concurrent callers
// of the same key join its pending entry (Shared), and later callers
// hit the stored value (Hit) — one computation in total.
func TestDoStatuses(t *testing.T) {
	c := New("t", 100)
	var runs atomic.Int64
	release := make(chan struct{})
	const callers = 4
	statuses := make([]Status, callers)
	vals := make([]any, callers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		vals[0], statuses[0], err = c.Do(context.Background(), "k", gated(&runs, release, "v"))
		if err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	waitFor(t, "leader to open the entry", func() bool { return c.Stats().Waiters == 1 })
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			vals[i], statuses[i], err = c.Do(context.Background(), "k", gated(&runs, release, "other"))
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
		}(i)
	}
	waitFor(t, "followers to join", func() bool { return c.Stats().Waiters == callers })
	close(release)
	wg.Wait()

	if statuses[0] != Cold {
		t.Errorf("leader status = %v, want cold", statuses[0])
	}
	for i := 1; i < callers; i++ {
		if statuses[i] != Shared {
			t.Errorf("follower %d status = %v, want shared", i, statuses[i])
		}
	}
	for i, v := range vals {
		if v != "v" {
			t.Errorf("caller %d got %v, want the leader's value", i, v)
		}
	}
	v, st, err := c.Do(context.Background(), "k", gated(&runs, release, "late"))
	if err != nil || st != Hit || v != "v" {
		t.Errorf("later call = %v, %v, %v; want v, hit, nil", v, st, err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Shared != callers-1 || s.Waiters != 0 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, %d shared, 0 waiters, 1 entry", s, callers-1)
	}
}

// TestDoLeaderCancelHandoff: the caller that opened the entry gives up
// while another waits; the computation keeps running for the waiter
// and runs exactly once.
func TestDoLeaderCancelHandoff(t *testing.T) {
	c := New("t", 100)
	var runs atomic.Int64
	release := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", gated(&runs, release, "v"))
		leaderErr <- err
	}()
	waitFor(t, "leader to open the entry", func() bool { return c.Stats().Waiters == 1 })
	type result struct {
		v   any
		st  Status
		err error
	}
	follower := make(chan result, 1)
	go func() {
		v, st, err := c.Do(context.Background(), "k", gated(&runs, release, "other"))
		follower <- result{v, st, err}
	}()
	waitFor(t, "follower to join", func() bool { return c.Stats().Waiters == 2 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	waitFor(t, "leader to leave", func() bool { return c.Stats().Waiters == 1 })
	close(release)
	r := <-follower
	if r.err != nil || r.st != Shared || r.v != "v" {
		t.Fatalf("follower = %v, %v, %v; want v, shared, nil", r.v, r.st, r.err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1 (handoff, not restart)", n)
	}
	if _, ok := lookup(c, "k"); !ok {
		t.Error("handed-off value was not stored")
	}
}

// TestDoLastWaiterCancels: when every waiter leaves, the computation's
// context is cancelled and the key is free for a fresh computation.
func TestDoLastWaiterCancels(t *testing.T) {
	c := New("t", 100)
	computeErr := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		_, _, err := c.Do(ctx, "k", func(cctx context.Context) (any, int64, error) {
			close(started)
			<-cctx.Done()
			computeErr <- cctx.Err()
			return nil, 0, cctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v, want context.Canceled", err)
	}
	select {
	case err := <-computeErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("compute ctx err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compute was not cancelled when its last waiter left")
	}
	v, st, err := c.Do(context.Background(), "k", func(context.Context) (any, int64, error) {
		return "fresh", 1, nil
	})
	if err != nil || st != Cold || v != "fresh" {
		t.Errorf("next call = %v, %v, %v; want fresh, cold, nil", v, st, err)
	}
	if s := c.Stats(); s.Waiters != 0 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 0 waiters and 2 misses", s)
	}
}

// TestDoErrorNotStored: a failed computation reaches every waiter and
// leaves nothing behind; the next call recomputes.
func TestDoErrorNotStored(t *testing.T) {
	c := New("t", 100)
	boom := errors.New("boom")
	release := make(chan struct{})
	var runs atomic.Int64
	fail := func(context.Context) (any, int64, error) {
		runs.Add(1)
		<-release
		return nil, 0, boom
	}
	errs := make(chan error, 2)
	go func() { _, _, err := c.Do(context.Background(), "k", fail); errs <- err }()
	waitFor(t, "leader to open the entry", func() bool { return c.Stats().Waiters == 1 })
	go func() { _, _, err := c.Do(context.Background(), "k", fail); errs <- err }()
	waitFor(t, "follower to join", func() bool { return c.Stats().Waiters == 2 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("waiter err = %v, want boom", err)
		}
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed computation stored an entry: %+v", s)
	}
	v, st, err := c.Do(context.Background(), "k", func(context.Context) (any, int64, error) {
		runs.Add(1)
		return "ok", 1, nil
	})
	if err != nil || st != Cold || v != "ok" {
		t.Errorf("retry = %v, %v, %v; want ok, cold, nil", v, st, err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("compute ran %d times, want 2", n)
	}
}

// TestDoPanic: a panicking computation reaches every waiter as an
// error carrying the panic value and stack, and stores nothing.
func TestDoPanic(t *testing.T) {
	c := New("t", 100)
	release := make(chan struct{})
	explode := func(context.Context) (any, int64, error) {
		<-release
		panic("kaboom")
	}
	errs := make(chan error, 2)
	go func() { _, _, err := c.Do(context.Background(), "k", explode); errs <- err }()
	waitFor(t, "leader to open the entry", func() bool { return c.Stats().Waiters == 1 })
	go func() { _, _, err := c.Do(context.Background(), "k", explode); errs <- err }()
	waitFor(t, "follower to join", func() bool { return c.Stats().Waiters == 2 })
	close(release)
	for i := 0; i < 2; i++ {
		err := <-errs
		if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "goroutine") {
			t.Errorf("waiter err = %v, want the panic value and stack", err)
		}
	}
	if s := c.Stats(); s.Entries != 0 || s.Waiters != 0 {
		t.Fatalf("panicking computation left state behind: %+v", s)
	}
	if _, st, err := c.Do(context.Background(), "k", func(context.Context) (any, int64, error) {
		return "ok", 1, nil
	}); err != nil || st != Cold {
		t.Errorf("retry after panic = %v, %v; want cold, nil", st, err)
	}
}

// TestDoDisabled: a zero-bound cache computes inline on every call,
// with no sharing and no storage.
func TestDoDisabled(t *testing.T) {
	c := New("t", 0)
	var runs atomic.Int64
	for i := 0; i < 3; i++ {
		v, st, err := c.Do(context.Background(), "k", func(context.Context) (any, int64, error) {
			return runs.Add(1), 8, nil
		})
		if err != nil || st != Cold || v != int64(i+1) {
			t.Fatalf("call %d = %v, %v, %v", i, v, st, err)
		}
	}
	if s := c.Stats(); s.Entries != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Errorf("disabled cache kept state: %+v", s)
	}
	var nilCache *Cache
	if v, st, err := nilCache.Do(context.Background(), "k", func(context.Context) (any, int64, error) {
		return "x", 1, nil
	}); err != nil || st != Cold || v != "x" {
		t.Errorf("nil cache Do = %v, %v, %v", v, st, err)
	}
}
