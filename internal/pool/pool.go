// Package pool provides ForEach, the bounded, cancellable worker pool
// behind the engine's per-vehicle training fan-out and the experiment
// drivers' per-vehicle loops. Parallelism in this system lives across
// vehicles (and, inside a random forest, across trees); a single
// model's fit runs serially on the calling goroutine.
package pool

import (
	"context"
	"sync"
)

// ForEach executes fn(i) for every i in [0, n) on at most workers
// goroutines and blocks until all started work has finished. It is the
// one bounded-pool idiom shared by the engine's training path and the
// experiment drivers: indices are dispatched in order and callers write
// results into i-indexed slots, so output never depends on goroutine
// scheduling.
//
// When ctx is cancelled before every index was dispatched, the
// remaining indices are skipped and ctx's error is returned. A
// cancellation arriving after full dispatch is ignored — by then all
// work has completed (ForEach only returns after the pool drains), so
// there is nothing left to abandon.
func ForEach(ctx context.Context, n, workers int, fn func(int)) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	dispatched := 0
feed:
	for i := 0; i < n; i++ {
		// Check cancellation before dispatching: when workers are parked
		// on the receive, both cases of the select below are ready and
		// the send could win every round, racing an already-cancelled
		// context all the way to full dispatch.
		select {
		case <-ctx.Done():
			break feed
		default:
		}
		select {
		case jobs <- i:
			dispatched++
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if dispatched < n {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}
