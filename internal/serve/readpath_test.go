package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// condGet issues a GET with an optional If-None-Match header against
// any handler (single server or router).
func condGet(t testing.TB, h http.Handler, path, inm string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestFleetArtifactBytesIdentical pins the whole-fleet artifact cache:
// cold and warm responses byte-match an independent marshal of the
// snapshot, headers carry the snapshot tag, counters move once per
// state, and a retrain swaps in a cold cache with a new tag.
func TestFleetArtifactBytesIdentical(t *testing.T) {
	srv := buildServer(t)
	snap := srv.engine.Snapshot()

	fleetOracle := encodeJSON(func() FleetForecastJSON {
		out := FleetForecastJSON{Forecasts: make([]ForecastJSON, len(snap.Forecasts))}
		for i, f := range snap.Forecasts {
			out.Forecasts[i] = toJSON(f)
		}
		if len(snap.ForecastErrors) > 0 {
			out.Errors = snap.ForecastErrors
		}
		return out
	}())
	vehiclesOracle := encodeJSON(func() []VehicleInfo {
		out := make([]VehicleInfo, 0, len(snap.Statuses))
		for _, st := range snap.Statuses {
			out = append(out, VehicleInfo{ID: st.ID, Category: st.Category.String(), Strategy: st.Strategy, Model: string(st.Algorithm), Error: st.Err})
		}
		return out
	}())

	for pass := 0; pass < 2; pass++ { // miss, then hit
		rec, body := get(t, srv, "/fleet/forecast")
		if rec.Code != http.StatusOK || string(body) != string(fleetOracle) {
			t.Fatalf("pass %d: /fleet/forecast = %d, body diverges from fresh marshal", pass, rec.Code)
		}
		if got := rec.Header().Get("ETag"); got != snap.ETag() {
			t.Fatalf("pass %d: ETag %q, want %q", pass, got, snap.ETag())
		}
		if got := rec.Header().Get(HeaderFleetGeneration); got != snap.GenerationID() {
			t.Fatalf("pass %d: generation echo %q, want %q", pass, got, snap.GenerationID())
		}
		rec, body = get(t, srv, "/vehicles")
		if rec.Code != http.StatusOK || string(body) != string(vehiclesOracle) {
			t.Fatalf("pass %d: /vehicles = %d, body diverges from fresh marshal", pass, rec.Code)
		}
	}
	if h, m := srv.fleetForecast.hits.Load(), srv.fleetForecast.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("fleet-forecast cache hits=%d misses=%d, want 1/1", h, m)
	}
	if h, m := srv.vehicles.hits.Load(), srv.vehicles.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("vehicles cache hits=%d misses=%d, want 1/1", h, m)
	}

	// A retrain publishes a cold artifact cache and a new tag; bytes
	// must match a fresh marshal of the new snapshot.
	oldTag := snap.ETag()
	if _, err := srv.engine.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	next := srv.engine.Snapshot()
	if next.ETag() == oldTag {
		t.Fatal("retrain did not change the entity tag")
	}
	rec, body := get(t, srv, "/fleet/forecast")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-retrain /fleet/forecast = %d", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got != next.ETag() {
		t.Fatalf("post-retrain ETag %q, want %q", got, next.ETag())
	}
	if m := srv.fleetForecast.misses.Load(); m != 2 {
		t.Fatalf("post-retrain misses = %d, want 2 (cold cache per generation)", m)
	}
	if string(body) != string(buildFleetForecastBody(next)) {
		t.Fatal("post-retrain body diverges from fresh marshal of the new snapshot")
	}
}

// condRoute is one row of the conditional-GET table: a data route and
// the X-Fleet-Generation its 200 must echo.
type condRoute struct {
	path, gen string
}

// checkConditionalTable runs the conditional-GET contract over data
// routes on one handler (server or router): each 200 carries a strong
// ETag and the expected generation echo; If-None-Match with the exact
// tag, its W/ form, a list holding it, or * yields an empty 304 counted
// in notModified; a stale tag yields the full 200.
func checkConditionalTable(t *testing.T, h http.Handler, notModified *atomic.Uint64, routes []condRoute) {
	t.Helper()
	for _, rt := range routes {
		rec, body := condGet(t, h, rt.path, "")
		etag := rec.Header().Get("ETag")
		if rec.Code != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s = %d with %d body bytes, want 200", rt.path, rec.Code, len(body))
		}
		if len(etag) < 3 || etag[0] != '"' || etag[len(etag)-1] != '"' {
			t.Fatalf("%s: ETag %q is not a strong tag", rt.path, etag)
		}
		if got := rec.Header().Get(HeaderFleetGeneration); got != rt.gen {
			t.Fatalf("%s: %s = %q, want %q", rt.path, HeaderFleetGeneration, got, rt.gen)
		}
		for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
			before := notModified.Load()
			rec, body := condGet(t, h, rt.path, inm)
			if rec.Code != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("%s If-None-Match %q = %d with %d body bytes, want empty 304", rt.path, inm, rec.Code, len(body))
			}
			if got := rec.Header().Get("ETag"); got != etag {
				t.Fatalf("%s: 304 carries ETag %q, want %q", rt.path, got, etag)
			}
			if n := notModified.Load(); n != before+1 {
				t.Fatalf("%s If-None-Match %q: not-modified counter %d -> %d, want +1", rt.path, inm, before, n)
			}
		}
		if rec, body := condGet(t, h, rt.path, `"stale"`); rec.Code != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s stale tag = %d, want full 200", rt.path, rec.Code)
		}
	}
}

// checkUncacheable asserts that error responses carry no tag and never
// answer 304, whatever the client presents.
func checkUncacheable(t *testing.T, h http.Handler, path string, status int) {
	t.Helper()
	for _, inm := range []string{"", "*"} {
		rec, _ := condGet(t, h, path, inm)
		if rec.Code != status {
			t.Fatalf("%s If-None-Match %q = %d, want %d", path, inm, rec.Code, status)
		}
		if tag := rec.Header().Get("ETag"); tag != "" {
			t.Fatalf("%s (%d) carries ETag %q", path, status, tag)
		}
	}
}

// TestConditionalGET pins the ETag/If-None-Match contract on every
// data route: a matching tag yields an empty 304 (weak and list forms
// included), a stale tag yields the full 200, and error responses
// carry no tag.
func TestConditionalGET(t *testing.T) {
	srv := buildServer(t)
	gen := srv.engine.Snapshot().GenerationID()
	checkConditionalTable(t, srv, &srv.notModified, []condRoute{
		{"/vehicles/v02/forecast", gen},
		{"/vehicles", gen},
		{"/fleet/forecast", gen},
		{"/fleet/plan", gen},
		{"/fleet/plan?capacity=3&horizon=400", gen},
	})
	checkUncacheable(t, srv, "/vehicles/ghost/forecast", http.StatusNotFound)
	checkUncacheable(t, srv, "/fleet/plan?capacity=bogus", http.StatusBadRequest)
	cold, err := engine.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	unready, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/vehicles/v02/forecast", "/vehicles", "/fleet/forecast", "/fleet/plan"} {
		checkUncacheable(t, unready, path, http.StatusServiceUnavailable)
	}

	srv = buildServer(t)

	rec, _ := get(t, srv, "/fleet/forecast")
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /fleet/forecast")
	}
	for _, inm := range []string{etag, "*", "W/" + etag, `"other", ` + etag, `"other",W/` + etag} {
		rec, body := condGet(t, srv, "/fleet/forecast", inm)
		if rec.Code != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("If-None-Match %q = %d with %d body bytes, want empty 304", inm, rec.Code, len(body))
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Fatalf("304 lost the ETag: %q", got)
		}
	}
	if rec, _ := condGet(t, srv, "/fleet/forecast", `"stale"`); rec.Code != http.StatusOK {
		t.Fatalf("stale tag = %d, want 200", rec.Code)
	}
	if n := srv.notModified.Load(); n != 5 {
		t.Fatalf("notModified = %d, want 5", n)
	}

	// Per-vehicle and plan routes speak the same protocol.
	rec, _ = get(t, srv, "/vehicles/v02/forecast")
	vtag := rec.Header().Get("ETag")
	if vtag != etag {
		t.Fatalf("per-vehicle tag %q differs from snapshot tag %q", vtag, etag)
	}
	if rec, _ := condGet(t, srv, "/vehicles/v02/forecast", vtag); rec.Code != http.StatusNotModified {
		t.Fatalf("per-vehicle conditional = %d, want 304", rec.Code)
	}
	rec, _ = get(t, srv, "/fleet/plan")
	ptag := rec.Header().Get("ETag")
	if ptag == "" || ptag == etag {
		t.Fatalf("plan tag %q should extend the snapshot tag %q", ptag, etag)
	}
	if rec, _ := condGet(t, srv, "/fleet/plan", ptag); rec.Code != http.StatusNotModified {
		t.Fatalf("plan conditional = %d, want 304", rec.Code)
	}
	// Different parameters are a different representation: a new tag.
	rec, _ = get(t, srv, "/fleet/plan?capacity=3")
	if got := rec.Header().Get("ETag"); got == ptag || got == "" {
		t.Fatalf("capacity=3 plan tag %q, want distinct from %q", got, ptag)
	}

	// Errors are uncacheable: no tag on a 404, and a conditional GET
	// still yields the error.
	rec, _ = get(t, srv, "/vehicles/ghost/forecast")
	if rec.Code != http.StatusNotFound || rec.Header().Get("ETag") != "" {
		t.Fatalf("404 = %d with ETag %q, want no tag", rec.Code, rec.Header().Get("ETag"))
	}

	// A retrain invalidates every outstanding tag.
	if _, err := srv.engine.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, body := condGet(t, srv, "/fleet/forecast", etag)
	if rec.Code != http.StatusOK || len(body) == 0 {
		t.Fatalf("post-retrain conditional = %d, want full 200", rec.Code)
	}
	if got := rec.Header().Get("ETag"); got == etag {
		t.Fatal("post-retrain response reuses the old tag")
	}
}

// TestPlanCache pins the memoized plan path: same-day same-parameter
// queries hit cached bytes, parameters key separate entries, invalid
// parameters bypass the cache with a 400.
func TestPlanCache(t *testing.T) {
	srv := buildServer(t)
	_, first := get(t, srv, "/fleet/plan?capacity=2&horizon=400&maxlead=30")
	_, second := get(t, srv, "/fleet/plan?capacity=2&horizon=400&maxlead=30")
	if string(first) != string(second) {
		t.Fatal("cached plan diverges from the fresh one")
	}
	if h, m := srv.planBodies.hits.Load(), srv.planBodies.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("plan cache hits=%d misses=%d, want 1/1", h, m)
	}
	if rec, _ := get(t, srv, "/fleet/plan?capacity=3&horizon=400&maxlead=30"); rec.Code != http.StatusOK {
		t.Fatalf("different parameters = %d", rec.Code)
	}
	if m := srv.planBodies.misses.Load(); m != 2 {
		t.Fatalf("parameter change did not miss: %d", m)
	}
	rec, _ := get(t, srv, "/fleet/plan?capacity=bogus")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad capacity = %d, want 400", rec.Code)
	}
	if h, m := srv.planBodies.hits.Load(), srv.planBodies.misses.Load(); h != 1 || m != 2 {
		t.Fatalf("400 touched the plan cache: hits=%d misses=%d", h, m)
	}
}

// TestFleetResponseAllocs pins the warm whole-fleet read paths at zero
// allocations per op — the tentpole acceptance gate.
func TestFleetResponseAllocs(t *testing.T) {
	srv := buildServer(t)
	if status, _, _ := srv.FleetForecastResponse(); status != http.StatusOK { // warm
		t.Fatalf("warm status %d", status)
	}
	if status, _, _ := srv.VehiclesResponse(); status != http.StatusOK { // warm
		t.Fatalf("warm status %d", status)
	}
	if n := testing.AllocsPerRun(200, func() {
		status, etag, body := srv.FleetForecastResponse()
		if status != http.StatusOK || etag == "" || len(body) == 0 {
			t.Fatalf("status %d", status)
		}
	}); n != 0 {
		t.Fatalf("warm FleetForecastResponse allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		status, etag, body := srv.VehiclesResponse()
		if status != http.StatusOK || etag == "" || len(body) == 0 {
			t.Fatalf("status %d", status)
		}
	}); n != 0 {
		t.Fatalf("warm VehiclesResponse allocates %v/op, want 0", n)
	}
}

// TestETagMatch covers the header-parsing corner cases directly.
func TestETagMatch(t *testing.T) {
	const tag = `"g1-abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{tag, true},
		{"*", true},
		{"W/" + tag, true},
		{`"other"`, false},
		{`"other", ` + tag, true},
		{`"other",` + tag, true},
		{` W/"x", W/` + tag + ` `, true},
		{`g1-abc`, false}, // unquoted never matches a strong tag
	}
	for _, c := range cases {
		if got := etagMatch(c.header, tag); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
	}
	if etagMatch("*", "") {
		t.Error("empty tag must never match")
	}
}
