package main

import (
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// openSchedule returns n due times in [0, window), sorted, no two
// closer than gap. Without a gap these are the arrival times of a
// Poisson process given its count (independent uniforms); the gap adds
// a dead time after every arrival, as a gateway that forwards at most
// one report per gap would. The count is fixed, not drawn, so that every
// seed of a workload takes the same number of samples.
func openSchedule(rng *rand.Rand, n int, window, gap time.Duration) []time.Duration {
	for n > 0 && time.Duration(n)*gap >= window {
		n-- // a window too short for n gaps holds fewer arrivals
	}
	if n == 0 {
		return nil
	}
	free := window - time.Duration(n)*gap
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(free)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for i := range due {
		due[i] += time.Duration(i) * gap
	}
	return due
}

// runOpenLoop starts op(i, due) at start+offsets[i] for every i, each
// in its own goroutine so a slow reply never delays a later request,
// and returns once all have finished. late[i] is how long after its due
// time request i was started; callers time requests from due, not from
// the start, so a stalled generator shows up in the latencies too.
func runOpenLoop(start time.Time, offsets []time.Duration, op func(i int, due time.Time)) (late []time.Duration) {
	late = make([]time.Duration, len(offsets))
	var wg sync.WaitGroup
	for i, off := range offsets {
		due := start.Add(off)
		sleepUntil(due)
		late[i] = time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op(i, due)
		}(i)
	}
	wg.Wait()
	return late
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime rounds an idle program's timers up to the next millisecond,
// which for sub-millisecond reads would make the generator's lateness
// the larger part of every latency timed from the due time.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// runClosedLoop runs clients goroutines that each call op, with their
// client index, back to back until the deadline.
func runClosedLoop(clients int, deadline time.Time, op func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c)
			}
		}(c)
	}
	wg.Wait()
}
