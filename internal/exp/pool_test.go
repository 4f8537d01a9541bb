package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ccdac/internal/fault"
)

// The pool tests use fault injection on the exp.job stage; they must
// not run in parallel with each other (process-global registry).

func TestPrefetchPanickingJobIsPerJobError(t *testing.T) {
	defer fault.Reset()
	// 6 bits offers all four methods; panic the second job dispatched.
	fault.EnablePanic(fault.StageExpJob, 1, "boom in job")

	h := NewHarness()
	h.AnnealMoves = 500
	err := h.PrefetchContext(context.Background(), []int{6})
	if err == nil {
		t.Fatal("expected the panicking job's error to surface")
	}
	if !strings.Contains(err.Error(), "recovered panic: fault: injected panic at exp.job: boom in job") {
		t.Errorf("error does not report the recovered panic: %v", err)
	}
	// Exactly one job failed; the three siblings completed and cached.
	h.mu.Lock()
	cached := len(h.cache)
	h.mu.Unlock()
	if cached != len(Methods)-1 {
		t.Errorf("got %d cached sibling results, want %d", cached, len(Methods)-1)
	}
}

func TestPrefetchFailingJobIsJoined(t *testing.T) {
	defer fault.Reset()
	sentinel := errors.New("injected job failure")
	fault.Enable(fault.StageExpJob, 0, sentinel)

	h := NewHarness()
	h.AnnealMoves = 500
	err := h.PrefetchContext(context.Background(), []int{6})
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error must match the injected cause, got %v", err)
	}
	h.mu.Lock()
	cached := len(h.cache)
	h.mu.Unlock()
	if cached != len(Methods)-1 {
		t.Errorf("got %d cached sibling results, want %d", cached, len(Methods)-1)
	}
}

func TestPrefetchCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := NewHarness()
	err := h.PrefetchContext(ctx, []int{6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the joined error, got %v", err)
	}
}
