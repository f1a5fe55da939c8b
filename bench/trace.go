package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. Operation spans are what the driver attempts and can
// fail; build and spill spans are reconstructed from the status poller
// of a traced run.
const (
	spanBoot         = "boot"          // spawn → first /readyz 200
	spanReport       = "report"        // single-report POST /telemetry
	spanBulk         = "bulk"          // 100-report POST /telemetry
	spanRead         = "read"          // GET on a read route
	spanFresh        = "fresh"         // report due → first forecast that reflects it
	spanReveal       = "reveal"        // the GET that first showed a report
	spanRecoverReady = "recover_ready" // respawn → /readyz 200
	spanRecoverFresh = "recover_fresh" // respawn → every acked report reflected
	spanCheck        = "check"         // one assertion of the output check
	spanBuild        = "build"         // retraining flips on → generation increments
	spanSpill        = "spill"         // generation increments → retraining clears
)

// Phases of a run, for the attempted/failed counts.
const (
	phaseSetup  = "setup"
	phaseWindow = "window"
	phaseCrash  = "crash"
	phaseCheck  = "check"
)

// span is one timed step. Times are offsets from the run's epoch.
// Parent links a report to its freshness span, and — in a traced run —
// the freshness span to the build that covered it, that build to its
// spill, and the revealing read to the freshness span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Phase  string        `json:"phase,omitempty"`
	Route  string        `json:"route,omitempty"`
	Door   string        `json:"door,omitempty"`
	Due    time.Duration `json:"due_ns"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Status int           `json:"status,omitempty"`
	Gen    string        `json:"generation,omitempty"`
	Shard  string        `json:"shard,omitempty"`
	// Reports is the number of reports a telemetry POST carried.
	Reports int `json:"reports,omitempty"`
	// Category is the reporting vehicle's cold-start category.
	Category string `json:"category,omitempty"`
	// Sampled marks a report whose freshness is measured.
	Sampled bool `json:"sampled,omitempty"`
	// Traced marks requests made while the status poller was running.
	Traced bool `json:"traced,omitempty"`
	// Failed is why the operation failed; empty when it succeeded.
	Failed string `json:"failed,omitempty"`
}

func (s span) latency() time.Duration { return s.End - s.Due }

func isOperation(name string) bool {
	switch name {
	case spanBuild, spanSpill, spanReveal:
		return false
	}
	return true
}

// recorder keeps every span of a run in memory; nothing is written
// while the benchmark measures.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.epoch) }

// add stores a span and returns its ID (IDs start at 1 so that 0 means
// "no parent").
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// engineStatus is the part of a shard's GET /admin/status the poller
// reads.
type engineStatus struct {
	Ready      bool   `json:"ready"`
	Retraining bool   `json:"retraining"`
	Generation uint64 `json:"generation"`
	Vehicles   int    `json:"vehicles"`
	Retrained  int    `json:"retrained"`
}

// routerStatus is GET /admin/status on the router; a single server
// answers with a bare engineStatus.
type routerStatus struct {
	engineStatus
	Shards map[string]engineStatus `json:"shards"`
}

// shards returns the per-engine statuses, naming a lone engine
// "default" as the server itself does.
func (rs routerStatus) shards() map[string]engineStatus {
	if len(rs.Shards) > 0 {
		return rs.Shards
	}
	return map[string]engineStatus{"default": rs.engineStatus}
}

// genEvent is one engine generation as the status poller saw it.
type genEvent struct {
	shard      string
	generation uint64
	retrained  int
	buildStart time.Duration // retraining flipped on (0 if the poller missed it)
	published  time.Duration // generation incremented
	idle       time.Duration // retraining cleared (0 if it never did)
}

// statusPoller polls GET /admin/status every pollEvery and turns the
// (generation, retraining) transitions of each engine into genEvents.
// It is the only instrument that sees inside the server's freshness
// path without code in the server.
type statusPoller struct {
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	paused bool
	last   map[string]engineStatus
	flipOn map[string]time.Duration
	open   map[string]int // shard → index in events awaiting its idle time
	events []genEvent
}

const pollEvery = 2 * time.Millisecond

func startStatusPoller(rec *recorder, c *http.Client, base string) *statusPoller {
	p := &statusPoller{
		stop: make(chan struct{}), done: make(chan struct{}),
		last: map[string]engineStatus{}, flipOn: map[string]time.Duration{}, open: map[string]int{},
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			if p.isPaused() {
				continue
			}
			var st routerStatus
			if err := getJSON(c, base+"/admin/status", &st); err != nil {
				continue // the server is down between a SIGKILL and its restart
			}
			p.observe(rec.since(time.Now()), st.shards())
		}
	}()
	return p
}

func (p *statusPoller) observe(now time.Duration, shards map[string]engineStatus) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, st := range shards {
		prev, seen := p.last[name]
		p.last[name] = st
		if !seen {
			continue
		}
		if st.Retraining && !prev.Retraining {
			p.flipOn[name] = now
		}
		if st.Generation > prev.Generation {
			p.events = append(p.events, genEvent{
				shard: name, generation: st.Generation, retrained: st.Retrained,
				buildStart: p.flipOn[name], published: now,
			})
			delete(p.flipOn, name)
			p.open[name] = len(p.events) - 1
		}
		if !st.Retraining {
			if i, ok := p.open[name]; ok {
				p.events[i].idle = now
				delete(p.open, name)
			}
		}
	}
}

// restart forgets the last status seen, after a gap in which
// transitions went unobserved: a SIGKILL (generations restart from the
// restored snapshot) or a pause.
func (p *statusPoller) restart() {
	p.mu.Lock()
	p.last, p.flipOn, p.open = map[string]engineStatus{}, map[string]time.Duration{}, map[string]int{}
	p.mu.Unlock()
}

// pause stops or resumes polling; the untraced stretch of a traced run
// must not carry the poller's load.
func (p *statusPoller) pause(paused bool) {
	p.restart()
	p.mu.Lock()
	p.paused = paused
	p.mu.Unlock()
}

func (p *statusPoller) isPaused() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.paused
}

func (p *statusPoller) finish() []genEvent {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]genEvent(nil), p.events...)
}

// traceFile is what a traced run writes to bench/out.
type traceFile struct {
	Record *record `json:"record"`
	Spans  []span  `json:"spans"`
}

func writeTrace(root string, rec *record, spans []span) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+rec.Workload+".json")
	data, err := json.Marshal(traceFile{Record: rec, Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
