package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestGenCacheFirstStoreWins: a get misses until a put, the first
// store of a key wins, racing stores all get the one canonical slice,
// and a get under any other generation misses.
func TestGenCacheFirstStoreWins(t *testing.T) {
	c := newGenCache[[]byte]("test_cache", "Test entries", 0)
	if _, _, ok := c.get("g1", "k"); ok {
		t.Fatal("cold cache reports an entry")
	}
	first := []byte("first")
	if etag, got := c.put("g1", "k", `"g1"`, first); &got[0] != &first[0] || etag != `"g1"` {
		t.Fatal("first store did not win its own key")
	}
	if _, got := c.put("g1", "k", `"other"`, []byte("second")); &got[0] != &first[0] {
		t.Fatal("second store displaced the first body")
	}
	etag, got, ok := c.get("g1", "k")
	if !ok || &got[0] != &first[0] || etag != `"g1"` {
		t.Fatalf("get = %q %q ok=%v, want the first entry", etag, got, ok)
	}
	if _, _, ok := c.get("g1", "other-key"); ok {
		t.Fatal("keys are not independent")
	}
	if _, _, ok := c.get("g2", "k"); ok {
		t.Fatal("a get under another generation hit")
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 1 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3", h, m)
	}

	// A put under a new generation drops the old table.
	c.put("g2", "k2", `"g2"`, []byte("x"))
	if _, _, ok := c.get("g1", "k"); ok {
		t.Fatal("the old generation survived a put under a new one")
	}

	// Racing writers all converge on one canonical slice.
	race := newGenCache[[]byte]("race_cache", "Race entries", 0)
	results := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = race.put("g", "k", `"g"`, []byte{byte(i)})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatal("racing stores returned different canonical bodies")
		}
	}
}

// TestGenCacheBounded: a bounded cache serves what it stores, drops new
// keys past the bound (plan parameters are client-controlled keys) but
// still returns the entry of a key it holds, and a new generation
// starts with the whole bound again.
func TestGenCacheBounded(t *testing.T) {
	c := newGenCache[[]byte]("test_cache", "Test entries", maxPlanEntries)
	for i := 0; i < maxPlanEntries; i++ {
		c.put("g1", fmt.Sprintf("k%d", i), "", []byte{byte(i)})
	}
	if _, b, ok := c.get("g1", "k0"); !ok || len(b) != 1 {
		t.Fatal("stored entry not served back")
	}
	if _, b := c.put("g1", "overflow", "", []byte("x")); string(b) != "x" {
		t.Fatal("a put past the bound did not hand back the caller's value")
	}
	if _, _, ok := c.get("g1", "overflow"); ok {
		t.Fatalf("cache grew past its %d-entry bound", maxPlanEntries)
	}
	if _, b := c.put("g1", "k0", "", []byte("updated")); len(b) != 1 || b[0] != 0 {
		t.Fatalf("a put of a held key at the bound returned %q, want the stored entry", b)
	}
	c.put("g2", "overflow", "", []byte("x"))
	if _, _, ok := c.get("g2", "overflow"); !ok {
		t.Fatal("a new generation did not reset the bound")
	}
}

// TestGenCacheTornNeverStored: the empty generation (a torn gather's)
// is never stored and never counted.
func TestGenCacheTornNeverStored(t *testing.T) {
	c := newGenCache[[]byte]("test_cache", "Test entries", 0)
	c.put("g1", "k", `"g1"`, []byte("kept"))
	if _, b := c.put("", "k", `"torn"`, []byte("torn")); string(b) != "torn" {
		t.Fatalf("put under the empty generation returned %q, want the caller's value", b)
	}
	if _, _, ok := c.get("", "k"); ok {
		t.Fatal("get under the empty generation hit")
	}
	if _, b, ok := c.get("g1", "k"); !ok || string(b) != "kept" {
		t.Fatal("a torn put disturbed the live generation")
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 1 || m != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0 (the empty generation counts nothing)", h, m)
	}
}

// TestGenCacheHammer races readers and writers across generation
// changes (run with -race): every value encodes the generation it was
// built for, and no get or put may ever return a value stored under a
// generation other than the one it asked for.
func TestGenCacheHammer(t *testing.T) {
	c := newGenCache[string]("hammer_cache", "Hammer entries", 4)
	var wg sync.WaitGroup
	errc := make(chan string, 1)
	fail := func(msg string) {
		select {
		case errc <- msg:
		default:
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				gen := "g" + strconv.Itoa((i/50+w)%3)
				key := "k" + strconv.Itoa(i%6)
				if etag, v, ok := c.get(gen, key); ok && (v != gen+"/"+key || etag != gen) {
					fail(fmt.Sprintf("get(%s, %s) = %s %s", gen, key, etag, v))
					return
				}
				if etag, v := c.put(gen, key, gen, gen+"/"+key); v != gen+"/"+key || etag != gen {
					fail(fmt.Sprintf("put(%s, %s) returned %s %s", gen, key, etag, v))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatalf("cache crossed generations: %s", msg)
	default:
	}
}

// TestReadSeriesNames: every read-path series that other code reads —
// the benchmark's cache-hit and not-modified shares, the cluster smoke
// script — and the forecast-read wait series are on a server's and a
// router's /metrics, so a rename shows here instead of turning those
// readings silently absent.
func TestReadSeriesNames(t *testing.T) {
	names := func(t *testing.T, h http.Handler) map[string]bool {
		t.Helper()
		rec, body := condGet(t, h, "/metrics", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics = %d", rec.Code)
		}
		samples, err := obs.ParseText(string(body))
		if err != nil {
			t.Fatal(err)
		}
		found := make(map[string]bool)
		for _, s := range samples {
			if s.Label("shard") == "" {
				found[s.Name] = true
			}
		}
		return found
	}
	counters := func(caches ...string) []string {
		var out []string
		for _, c := range caches {
			out = append(out, c+"_hits", c+"_misses")
		}
		return out
	}
	server := append(counters("fleet_response_cache", "fleet_fleet_forecast_cache", "fleet_vehicles_cache", "fleet_plan_cache"),
		"fleet_http_not_modified_total", "fleet_forecast_wait_total", "fleet_forecast_wait_seconds_count")
	router := append(counters("fleet_router_merge_cache", "fleet_router_plan_cache", "fleet_router_plan_decode"),
		"fleet_router_merge_cache_torn", "fleet_router_shard_not_modified_total", "fleet_http_not_modified_total")

	have := names(t, buildServer(t))
	for _, name := range server {
		if !have[name] {
			t.Errorf("server /metrics lacks %s", name)
		}
	}
	have = names(t, buildCluster(t, 6, 3, 0, RouterOptions{}).router)
	for _, name := range router {
		if !have[name] {
			t.Errorf("router /metrics lacks %s", name)
		}
	}
	for name := range have {
		if strings.HasSuffix(name, "_invalidations") || strings.HasSuffix(name, "_torn_bypass") {
			t.Errorf("router /metrics still writes %s", name)
		}
	}
}
