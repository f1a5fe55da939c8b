package main

import (
	"testing"
	"time"
)

// The poller turns (generation, retraining) transitions into one event
// per generation with its build start, publication and idle times.
func TestStatusPollerEvents(t *testing.T) {
	p := &statusPoller{last: map[string]engineStatus{}, flipOn: map[string]time.Duration{}, open: map[string]int{}}
	at := func(msec int, gen uint64, retraining bool, retrained int) {
		p.observe(time.Duration(msec)*time.Millisecond, map[string]engineStatus{
			"default": {Ready: true, Generation: gen, Retraining: retraining, Retrained: retrained},
		})
	}
	at(0, 1, false, 24)
	at(10, 1, true, 24)  // a report kicked a build
	at(110, 2, true, 9)  // published, still spilling
	at(200, 2, false, 9) // spill done
	at(300, 2, true, 9)
	at(310, 3, false, 1) // a build and spill too short to see apart
	if len(p.events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(p.events), p.events)
	}
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	e := p.events[0]
	if e.generation != 2 || e.retrained != 9 || ms(e.buildStart) != 10 || ms(e.published) != 110 || ms(e.idle) != 200 {
		t.Errorf("first event = %+v, want generation 2 built 10→110 ms, idle at 200 ms", e)
	}
	e = p.events[1]
	if e.generation != 3 || ms(e.buildStart) != 300 || ms(e.published) != 310 || ms(e.idle) != 310 {
		t.Errorf("second event = %+v, want generation 3 built 300→310 ms, idle at 310 ms", e)
	}
}

func TestRouterStatusShards(t *testing.T) {
	single := routerStatus{engineStatus: engineStatus{Ready: true, Generation: 4}}
	if got := single.shards(); len(got) != 1 || got["default"].Generation != 4 {
		t.Errorf("a single server must read as one shard named default: %v", got)
	}
	routed := routerStatus{Shards: map[string]engineStatus{"shard0": {Generation: 2}, "shard1": {Generation: 3}}}
	if got := routed.shards(); len(got) != 2 || got["shard1"].Generation != 3 {
		t.Errorf("a router's shards must pass through: %v", got)
	}
}

func TestStripShardLabel(t *testing.T) {
	for in, want := range map[string]string{
		`fleet_generation`:                                              `fleet_generation`,
		`fleet_generation{shard="shard1"}`:                              `fleet_generation`,
		`fleet_train_stage_seconds_sum{shard="shard0",stage="fit"}`:     `fleet_train_stage_seconds_sum{stage="fit"}`,
		`fleet_http_request_seconds_count{route="GET /fleet/forecast"}`: `fleet_http_request_seconds_count{route="GET /fleet/forecast"}`,
	} {
		if got := stripShardLabel(in); got != want {
			t.Errorf("stripShardLabel(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestGenerationOf(t *testing.T) {
	if g, ok := generationOf("g12-18d95b974e882f7e"); !ok || g != 12 {
		t.Errorf("generationOf = %d %v, want 12 true", g, ok)
	}
	if _, ok := generationOf(`"m1f3a"`); ok {
		t.Error("a merged router tag names no single generation")
	}
}
