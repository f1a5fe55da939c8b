package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// freshForecastBytes marshals a vehicle's forecast the way the wire
// path does, bypassing the cache — the oracle every cached response
// must byte-match.
func freshForecastBytes(snap *engine.Snapshot, id string) ([]byte, bool) {
	f, ok := snap.ForecastByID[id]
	if !ok {
		return nil, false
	}
	return encodeJSON(toJSON(f)), true
}

// TestResponseCacheBytesIdentical pins the serving-cache contract:
// cached bytes equal a fresh marshal for every vehicle, survive only
// within their generation (a retrain swap starts cold), and the
// hit/miss counters move accordingly.
func TestResponseCacheBytesIdentical(t *testing.T) {
	srv := buildServer(t)
	ids := []string{"v01", "v02", "v03"}

	snap := srv.engine.Snapshot()
	for _, id := range ids {
		want, ok := freshForecastBytes(snap, id)
		if !ok {
			t.Fatalf("no precomputed forecast for %s", id)
		}
		for pass := 0; pass < 2; pass++ { // miss, then hit
			rec, body := get(t, srv, "/vehicles/"+id+"/forecast")
			if rec.Code != http.StatusOK {
				t.Fatalf("%s pass %d: status %d: %s", id, pass, rec.Code, body)
			}
			if string(body) != string(want) {
				t.Fatalf("%s pass %d: body %q, fresh marshal %q", id, pass, body, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s pass %d: Content-Type %q", id, pass, ct)
			}
		}
	}
	hits, misses := srv.responses.hits.Load(), srv.responses.misses.Load()
	if hits != uint64(len(ids)) || misses != uint64(len(ids)) {
		t.Fatalf("cache counters hits=%d misses=%d, want %d/%d", hits, misses, len(ids), len(ids))
	}

	// A retrain publishes a new generation with a cold cache; responses
	// must still byte-match a fresh marshal of the *new* snapshot.
	if _, err := srv.engine.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	next := srv.engine.Snapshot()
	if next == snap {
		t.Fatal("retrain did not swap the snapshot")
	}
	for _, id := range ids {
		want, _ := freshForecastBytes(next, id)
		_, body := get(t, srv, "/vehicles/"+id+"/forecast")
		if string(body) != string(want) {
			t.Fatalf("%s after retrain: body %q, fresh marshal %q", id, body, want)
		}
	}
	misses2 := srv.responses.misses.Load()
	if misses2 != misses+uint64(len(ids)) {
		t.Fatalf("post-retrain misses %d, want %d (cold cache per generation)", misses2, misses+uint64(len(ids)))
	}
}

// TestResponseCacheRaceHammer races hot GETs against snapshot installs:
// every observed response must byte-match a fresh marshal of whichever
// snapshot served it (identical across generations here, since the
// fleet is unchanged and models are bit-identical). Run with -race this
// doubles as the data-race proof for the lazily-populated cache.
func TestResponseCacheRaceHammer(t *testing.T) {
	srv := buildServer(t)
	want, ok := freshForecastBytes(srv.engine.Snapshot(), "v02")
	if !ok {
		t.Fatal("no forecast for v02")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan string, 1)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec, body := get(t, srv, "/vehicles/v02/forecast")
				if rec.Code != http.StatusOK || string(body) != string(want) {
					select {
					case errc <- rec.Body.String():
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.engine.RetrainFromSource(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatalf("GET diverged from fresh marshal during snapshot swaps: %s", msg)
	default:
	}
}

// metricValue extracts one bare `name value` sample from an exposition.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %s missing from exposition:\n%s", name, text)
	return ""
}

// TestMetricsEndpoint checks the single-server exposition: engine state
// and response-cache counters as plain-text samples.
func TestMetricsEndpoint(t *testing.T) {
	srv := buildServer(t)
	get(t, srv, "/vehicles/v01/forecast") // one miss
	get(t, srv, "/vehicles/v01/forecast") // one hit

	rec, body := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	text := string(body)
	if v := metricValue(t, text, "fleet_ready"); v != "1" {
		t.Errorf("fleet_ready = %s", v)
	}
	if v := metricValue(t, text, "fleet_generation"); v != "1" {
		t.Errorf("fleet_generation = %s", v)
	}
	if v := metricValue(t, text, "fleet_vehicles"); v != "3" {
		t.Errorf("fleet_vehicles = %s", v)
	}
	if v := metricValue(t, text, "fleet_response_cache_hits"); v != "1" {
		t.Errorf("fleet_response_cache_hits = %s", v)
	}
	if v := metricValue(t, text, "fleet_response_cache_misses"); v != "1" {
		t.Errorf("fleet_response_cache_misses = %s", v)
	}
}

// TestRouterMetricsRelabel checks the router's merged exposition: every
// shard's samples appear exactly once, relabeled with shard="name", and
// each live shard contributes fleet_shard_up 1.
func TestRouterMetricsRelabel(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})
	rec, body := routerGet(t, fx.router, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	text := string(body)
	total := 0
	for _, sh := range fx.sharded.Ring().Shards() {
		up := `fleet_shard_up{shard="` + sh + `"} 1`
		if !strings.Contains(text, up+"\n") {
			t.Errorf("missing %q", up)
		}
		ready := `fleet_ready{shard="` + sh + `"} 1`
		if !strings.Contains(text, ready+"\n") {
			t.Errorf("missing %q", ready)
		}
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, `fleet_vehicles{shard="`+sh+`"}`) {
				var n int
				if _, err := fmt.Sscanf(line, `fleet_vehicles{shard="`+sh+`"} %d`, &n); err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				total += n
			}
		}
	}
	if total != 9 {
		t.Errorf("per-shard fleet_vehicles sum to %d, want 9", total)
	}
}
