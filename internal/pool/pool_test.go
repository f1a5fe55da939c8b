package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// workerCounts are the pool bounds ForEach must handle for n items:
// nonsense (≤ 0), serial, exactly n, and more workers than items.
func workerCounts(n int) []int { return []int{-3, 0, 1, n, n + 5} }

// assertOnce fails unless every index ran exactly once.
func assertOnce(t *testing.T, label string, calls []atomic.Int32) {
	t.Helper()
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Errorf("%s: index %d ran %d times, want 1", label, i, c)
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range workerCounts(n) {
			label := fmt.Sprintf("n=%d workers=%d", n, workers)
			calls := make([]atomic.Int32, n)
			if err := ForEach(context.Background(), n, workers, func(i int) { calls[i].Add(1) }); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertOnce(t, label, calls)
		}
	}
}

// TestForEachStopsOnCancel: once the context is cancelled ForEach
// dispatches no further index (at most the one the feeder was already
// offering) and returns the context's error; a context cancelled before
// the call runs nothing.
func TestForEachStopsOnCancel(t *testing.T) {
	const n, stopAt = 100, 10
	ctx, cancel := context.WithCancel(context.Background())
	calls := make([]atomic.Int32, n)
	var ran atomic.Int32
	err := ForEach(ctx, n, 1, func(i int) {
		calls[i].Add(1)
		ran.Add(1)
		if i == stopAt {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got < stopAt+1 || got > stopAt+2 {
		t.Fatalf("%d indices ran after a cancel at index %d, want %d or %d", got, stopAt, stopAt+1, stopAt+2)
	}
	for i := range calls {
		if c := calls[i].Load(); c > 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}

	ran.Store(0)
	if err := ForEach(ctx, n, 4, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("pre-cancelled context: err = %v after %d indices, want context.Canceled after none", err, ran.Load())
	}
}

// TestForEachIgnoresCancelAfterFullDispatch: a cancellation that lands
// once every index was handed out abandons nothing, so it is no error.
func TestForEachIgnoresCancelAfterFullDispatch(t *testing.T) {
	const n = 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := make([]atomic.Int32, n)
	err := ForEach(ctx, n, 1, func(i int) {
		calls[i].Add(1)
		if i == n-1 {
			cancel()
		}
	})
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	assertOnce(t, "cancel on the last index", calls)
}
