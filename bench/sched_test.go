package main

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestOpenScheduleIsSeededSortedAndGapped(t *testing.T) {
	const n, window, gap = 25, 10 * time.Second, 300 * time.Millisecond
	a := openSchedule(rand.New(rand.NewSource(7)), n, window, gap)
	b := openSchedule(rand.New(rand.NewSource(7)), n, window, gap)
	c := openSchedule(rand.New(rand.NewSource(8)), n, window, gap)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != n {
		t.Fatalf("got %d arrivals, want %d", len(a), n)
	}
	for i, due := range a {
		if due < 0 || due >= window {
			t.Errorf("arrival %d at %v is outside the window", i, due)
		}
		if i > 0 && due-a[i-1] < gap {
			t.Errorf("arrivals %d and %d are %v apart, less than the gap", i-1, i, due-a[i-1])
		}
	}
}

func TestOpenScheduleShrinksToFit(t *testing.T) {
	if got := openSchedule(rand.New(rand.NewSource(1)), 10, time.Second, 300*time.Millisecond); len(got) != 3 {
		t.Errorf("a 1 s window holds 3 arrivals 300 ms apart, got %d", len(got))
	}
	if got := openSchedule(rand.New(rand.NewSource(1)), 0, time.Second, 0); got != nil {
		t.Errorf("no arrivals asked for, got %v", got)
	}
}

// An open loop starts every request at its due time whatever the
// earlier ones are doing, and accounts for how late it started each.
func TestRunOpenLoopDoesNotWaitForReplies(t *testing.T) {
	offsets := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	var mu sync.Mutex
	started := make([]time.Duration, len(offsets))
	start := time.Now()
	late := runOpenLoop(start, offsets, func(i int, due time.Time) {
		mu.Lock()
		started[i] = time.Since(start)
		mu.Unlock()
		if i == 0 {
			time.Sleep(400 * time.Millisecond) // a stalled reply
		}
	})
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Errorf("returned after %v, before the slow request finished", elapsed)
	}
	for i, off := range offsets {
		if started[i] < off {
			t.Errorf("request %d started at %v, before it was due at %v", i, started[i], off)
		}
		if started[i] > off+300*time.Millisecond {
			t.Errorf("request %d started at %v: it waited for the stalled request", i, started[i])
		}
		if late[i] < 0 || late[i] > started[i]-off+time.Millisecond {
			t.Errorf("request %d: lateness %v does not match its start %v after due %v", i, late[i], started[i], off)
		}
	}
}

func TestLateFailure(t *testing.T) {
	r := &run{window: 10 * time.Second}
	due := time.Now()
	if got := r.lateFailure(due, due.Add(400*time.Millisecond)); got != "" {
		t.Errorf("4 %% late must pass, got %q", got)
	}
	if got := r.lateFailure(due, due.Add(600*time.Millisecond)); got == "" {
		t.Error("6 % late must count as a failed operation")
	}
}

func TestRunClosedLoopStopsAtDeadline(t *testing.T) {
	var mu sync.Mutex
	perClient := map[int]int{}
	runClosedLoop(2, time.Now().Add(300*time.Millisecond), func(c int) {
		mu.Lock()
		perClient[c]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if len(perClient) != 2 || perClient[0] == 0 || perClient[1] == 0 {
		t.Errorf("both clients must have run: %v", perClient)
	}
}
