package main

import (
	"math"
	"testing"
	"time"
)

func TestStreamRate(t *testing.T) {
	one := func(span) int { return 1 }
	stretches := []stretch{{0, time.Second}}
	// Four 250 ms slices holding 10, 10, 2 and 10 completions: one slice
	// lost most of its CPU to something else.
	var spans []span
	for slice, n := range []int{10, 10, 2, 10} {
		for i := 0; i < n; i++ {
			at := time.Duration(slice)*rateSlice + time.Duration(i)*time.Millisecond
			spans = append(spans, span{Due: at, End: at + time.Millisecond})
		}
	}
	if got := streamRate(spans, stretches, true, one); got != 40 {
		t.Errorf("closed loop: %v completions/s, want 40 (the undisturbed slices)", got)
	}
	if got := streamRate(spans, stretches, false, one); got != 32 {
		t.Errorf("open loop: %v completions/s, want 32 (all of them over the stretch)", got)
	}
	// An open loop whose last reply overruns the stretch is charged for
	// the overrun.
	spans = append(spans, span{Due: 900 * time.Millisecond, End: 2 * time.Second})
	if got := streamRate(spans, stretches, false, one); math.Abs(got-16.5) > 1e-9 {
		t.Errorf("open loop with overrun: %v completions/s, want 16.5", got)
	}
	// Completions belong to the stretch they were due in.
	two := []stretch{{0, time.Second}, {5 * time.Second, 6 * time.Second}}
	spans = []span{{Due: 0, End: time.Millisecond}, {Due: 5 * time.Second, End: 5*time.Second + time.Millisecond}, {Due: 5500 * time.Millisecond, End: 5600 * time.Millisecond}}
	if got := streamRate(spans, two, false, one); got != 1.5 {
		t.Errorf("two stretches: %v completions/s, want 1.5", got)
	}
}
