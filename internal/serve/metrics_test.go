package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestRelabelMetrics(t *testing.T) {
	cases := []struct {
		name  string
		in    string
		shard string
		want  string
	}{
		{
			name:  "bare sample gains a label set",
			in:    "fleet_ready 1\n",
			shard: "s0",
			want:  "fleet_ready{shard=\"s0\"} 1\n",
		},
		{
			name:  "existing labels keep the shard label first",
			in:    "fleet_http_request_seconds_bucket{route=\"GET /vehicles\",le=\"0.005\"} 3\n",
			shard: "s1",
			want:  "fleet_http_request_seconds_bucket{shard=\"s1\",route=\"GET /vehicles\",le=\"0.005\"} 3\n",
		},
		{
			name:  "empty label set",
			in:    "x{} 2\n",
			shard: "s0",
			want:  "x{shard=\"s0\"} 2\n",
		},
		{
			name:  "help and type relayed, other comments dropped",
			in:    "# HELP a b\n# TYPE a gauge\n# scrape note\na 1\n",
			shard: "s0",
			want:  "# HELP a b\n# TYPE a gauge\na{shard=\"s0\"} 1\n",
		},
		{
			name:  "torn label set dropped rather than mislabeled",
			in:    "broken{le=\"0.1 7\nok 1\n",
			shard: "s0",
			want:  "ok{shard=\"s0\"} 1\n",
		},
		{
			name:  "shard name escaped",
			in:    "a 1\n",
			shard: `s"0`,
			want:  "a{shard=\"s\\\"0\"} 1\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := relabelMetrics(tc.in, tc.shard, make(map[string]bool))
			if got != tc.want {
				t.Fatalf("relabelMetrics:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestRelabelMetricsDedupesComments: HELP/TYPE for a name relay once
// across shards — the described set is scrape-wide.
func TestRelabelMetricsDedupesComments(t *testing.T) {
	in := "# HELP a help\n# TYPE a counter\na 1\n"
	described := make(map[string]bool)
	first := relabelMetrics(in, "s0", described)
	second := relabelMetrics(in, "s1", described)
	if !strings.Contains(first, "# HELP a help") {
		t.Fatalf("first relabel lost the HELP comment: %q", first)
	}
	if strings.Contains(second, "# HELP") || strings.Contains(second, "# TYPE") {
		t.Fatalf("second shard re-described metric a: %q", second)
	}
	if !strings.Contains(second, "a{shard=\"s1\"} 1") {
		t.Fatalf("second shard sample missing: %q", second)
	}
}

// TestMetricsExposition: the single-server scrape parses cleanly and
// carries the route-latency histogram and per-stage training timings
// the issue promises.
func TestMetricsExposition(t *testing.T) {
	srv := buildServer(t)
	do(t, srv, http.MethodGet, "/vehicles") // put a sample in the route histogram
	rec, body := do(t, srv, http.MethodGet, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	samples, err := obs.ParseText(string(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	found := map[string]bool{}
	for _, s := range samples {
		found[s.Name] = true
	}
	for _, want := range []string{
		"fleet_ready",
		"fleet_generation",
		"fleet_http_request_seconds_bucket",
		"fleet_train_stage_seconds_bucket",
		"fleet_go_goroutines",
	} {
		if !found[want] {
			t.Fatalf("scrape is missing %s; have %d series", want, len(samples))
		}
	}
	// The GET /vehicles request above must have landed in its route's
	// histogram.
	var routeCount float64
	for _, s := range samples {
		if s.Name == "fleet_http_request_seconds_count" && s.Label("route") == "GET /vehicles" {
			routeCount = s.Value
		}
	}
	if routeCount < 1 {
		t.Fatalf("GET /vehicles not observed in route histogram (count %v)", routeCount)
	}
}

// TestRouterMetricsExposition: a router scrape parses, reports every
// shard up, and carries each shard's series relabeled.
func TestRouterMetricsExposition(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})
	rec := httptest.NewRecorder()
	fx.router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	samples, err := obs.ParseText(rec.Body.String())
	if err != nil {
		t.Fatalf("router exposition does not parse: %v", err)
	}
	up := map[string]float64{}
	shards := map[string]bool{}
	for _, s := range samples {
		if s.Name == "fleet_shard_up" {
			up[s.Label("shard")] = s.Value
		}
		if s.Name == "fleet_ready" {
			shards[s.Label("shard")] = true
		}
	}
	if len(up) != 3 {
		t.Fatalf("want 3 fleet_shard_up series, got %v", up)
	}
	for shard, v := range up {
		if v != 1 {
			t.Fatalf("shard %s reported down: %v", shard, up)
		}
		if !shards[shard] {
			t.Fatalf("shard %s contributed no relabeled fleet_ready series", shard)
		}
	}
	// No duplicate HELP/TYPE lines across the merged scrape.
	seen := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			if seen[line] {
				t.Fatalf("duplicate comment line %q", line)
			}
			seen[line] = true
		}
	}
}

// TestTracePropagation: one request through the router mints a trace
// ID, echoes it to the client, and hands the same ID to the owning
// shard via X-Fleet-Trace.
func TestTracePropagation(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})

	// Rebuild the backends with a wrapper that captures the trace
	// header each shard receives.
	var mu sync.Mutex
	got := make(map[string]string)
	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := NewWithOptions(sh.Engine, Options{Ingest: fx.store})
		if err != nil {
			t.Fatal(err)
		}
		name := sh.Name
		backends = append(backends, ShardBackend{Name: name, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			got[name] = r.Header.Get(obs.TraceHeader)
			mu.Unlock()
			srv.ServeHTTP(w, r)
		})})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/vehicles", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	trace := rec.Header().Get(obs.TraceHeader)
	if len(trace) != 32 {
		t.Fatalf("router echoed no minted trace ID: %q", trace)
	}
	if len(got) != 3 {
		t.Fatalf("scatter reached %d shards, want 3", len(got))
	}
	for name, id := range got {
		if id != trace {
			t.Fatalf("shard %s saw trace %q, router minted %q", name, id, trace)
		}
	}

	// A client-supplied trace ID is adopted, not replaced.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/vehicles", nil)
	req.Header.Set(obs.TraceHeader, "client-supplied-id")
	router.ServeHTTP(rec, req)
	if echo := rec.Header().Get(obs.TraceHeader); echo != "client-supplied-id" {
		t.Fatalf("router replaced client trace: %q", echo)
	}
}

// TestForecastResponseAllocs pins the cached forecast fast path —
// including the route histogram it now feeds — at zero allocations.
func TestForecastResponseAllocs(t *testing.T) {
	srv := buildServer(t)
	if status, _, _ := srv.ForecastResponse(context.Background(), "v02"); status != http.StatusOK {
		t.Fatalf("warm status %d", status)
	}
	if n := testing.AllocsPerRun(200, func() {
		status, _, body := srv.ForecastResponse(context.Background(), "v02")
		if status != http.StatusOK || len(body) == 0 {
			t.Fatalf("status %d", status)
		}
	}); n != 0 {
		t.Fatalf("cached ForecastResponse allocates %v/op, want 0", n)
	}
}
