package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// clusterFixture is an in-process 3-shard cluster behind a router: one
// shared ingest store, one serve.Server per shard over a partitioned
// engine, exactly as `fleetserver -shards 3 -ingest` wires it.
type clusterFixture struct {
	router  *Router
	sharded *cluster.Sharded
	store   *ingest.Store
	single  *engine.Engine // unsharded reference over the same store
}

func genVehicles(t testing.TB, n int) []engine.Vehicle {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	rnd := rng.New(1)
	var fleet []engine.Vehicle
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("v%02d", i+1)
		u := make(timeseries.Series, 400)
		for d := range u {
			if d%7 >= 5 {
				u[d] = 0
			} else {
				u[d] = 18000 * (1 + 0.1*rnd.NormFloat64())
			}
		}
		vs, err := timeseries.Derive(id, u, 600_000)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, engine.Vehicle{Series: vs, Start: start})
	}
	return fleet
}

// genStore is an in-memory ingest store seeded with genVehicles(n).
func genStore(t testing.TB, n int) *ingest.Store {
	t.Helper()
	store := ingest.New(600_000)
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	var reports []ingest.Report
	for _, v := range genVehicles(t, n) {
		for d, sec := range v.Series.U {
			reports = append(reports, ingest.Report{VehicleID: v.Series.ID, Date: start.AddDate(0, 0, d), Seconds: sec})
		}
	}
	if res, _ := store.UpsertBatch(reports); res.Rejected != 0 {
		t.Fatalf("seeding rejected %d reports", res.Rejected)
	}
	return store
}

func buildCluster(t testing.TB, vehicles, shards, retrainDirty int, ropts RouterOptions) *clusterFixture {
	t.Helper()
	store := genStore(t, vehicles)
	sharded, err := cluster.NewSharded(cluster.ShardedConfig{
		Engine: testEngineConfig(),
		Base:   store.Fleet,
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.RetrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	backends := make([]ShardBackend, 0, shards)
	for _, sh := range sharded.Shards() {
		srv, err := NewWithOptions(sh.Engine, Options{Ingest: store, RetrainDirty: retrainDirty})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
	}
	router, err := NewRouter(sharded.Ring(), backends, ropts)
	if err != nil {
		t.Fatal(err)
	}

	scfg := testEngineConfig()
	scfg.Source = store.Fleet
	single, err := engine.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	return &clusterFixture{router: router, sharded: sharded, store: store, single: single}
}

func routerGet(t testing.TB, rt *Router, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestRouterFleetForecastMatchesSingle: the router's merged
// /fleet/forecast must be byte-identical to an unsharded server's over
// the same store — deterministic merge ordering included.
func TestRouterFleetForecastMatchesSingle(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})

	singleSrv, err := New(fx.single)
	if err != nil {
		t.Fatal(err)
	}
	wantRec := httptest.NewRecorder()
	singleSrv.ServeHTTP(wantRec, httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil))
	rec, body := routerGet(t, fx.router, "/fleet/forecast")
	if rec.Code != http.StatusOK {
		t.Fatalf("router /fleet/forecast = %d: %s", rec.Code, body)
	}
	if got, want := string(body), wantRec.Body.String(); got != want {
		t.Fatalf("merged payload differs from unsharded:\nrouter %s\nsingle %s", got, want)
	}

	// /vehicles merges in ID order too.
	rec, body = routerGet(t, fx.router, "/vehicles")
	if rec.Code != http.StatusOK {
		t.Fatalf("/vehicles = %d", rec.Code)
	}
	var rows []VehicleInfo
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("router lists %d vehicles, want 9", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].ID >= rows[i].ID {
			t.Fatalf("merge order broken: %s before %s", rows[i-1].ID, rows[i].ID)
		}
	}
}

// TestRouterOwnerFastPath: a per-vehicle route answers from exactly
// the owning shard, tagged via X-Fleet-Shard.
func TestRouterOwnerFastPath(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})
	for i := 1; i <= 9; i++ {
		id := fmt.Sprintf("v%02d", i)
		rec, body := routerGet(t, fx.router, "/vehicles/"+id+"/forecast")
		if rec.Code != http.StatusOK {
			t.Fatalf("forecast %s = %d: %s", id, rec.Code, body)
		}
		owner := fx.sharded.Ring().Owner(id)
		if got := rec.Header().Get("X-Fleet-Shard"); got != owner {
			t.Errorf("vehicle %s served by %q, ring owner %q", id, got, owner)
		}
		var f ForecastJSON
		if err := json.Unmarshal(body, &f); err != nil {
			t.Fatal(err)
		}
		if f.VehicleID != id {
			t.Errorf("forecast for %s names %s", id, f.VehicleID)
		}
	}
	rec, _ := routerGet(t, fx.router, "/vehicles/ghost/forecast")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown vehicle = %d, want 404", rec.Code)
	}
}

// TestRouterReadyAndStatus: readiness and status aggregate across
// shards.
func TestRouterReadyAndStatus(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	rec, body := routerGet(t, fx.router, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d: %s", rec.Code, body)
	}
	var ready RouterReadyJSON
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || len(ready.Shards) != 3 || len(ready.Unready) != 0 {
		t.Fatalf("readyz = %+v, want all 3 shards ready", ready)
	}

	rec, body = routerGet(t, fx.router, "/admin/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/status = %d", rec.Code)
	}
	var st RouterStatusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Vehicles != 6 || len(st.Shards) != 3 {
		t.Fatalf("aggregate status %+v, want ready with 6 vehicles on 3 shards", st)
	}

	rec, _ = routerGet(t, fx.router, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", rec.Code)
	}
}

// downBackend simulates a dead shard: the handler blocks until the
// request context dies.
func downBackend(name string) ShardBackend {
	return ShardBackend{Name: name, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})}
}

// TestRouterShardDown: a wedged shard turns scatter-gather into a fast
// 503 naming the shard — never a hang — and flips /readyz.
func TestRouterShardDown(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	// Rebuild the router with shard01 replaced by a black hole.
	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		if sh.Name == "shard01" {
			backends = append(backends, downBackend(sh.Name))
			continue
		}
		srv, err := New(sh.Engine)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{ShardTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rec, body := routerGet(t, router, "/fleet/forecast")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("scatter-gather hung for %s", elapsed)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/fleet/forecast with a down shard = %d: %s", rec.Code, body)
	}
	var fail fanoutError
	if err := json.Unmarshal(body, &fail); err != nil {
		t.Fatal(err)
	}
	if _, ok := fail.Shards["shard01"]; !ok || len(fail.Shards) != 1 {
		t.Fatalf("failure names shards %v, want exactly shard01", fail.Shards)
	}

	rec, body = routerGet(t, router, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a down shard = %d", rec.Code)
	}
	var ready RouterReadyJSON
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if len(ready.Unready) != 1 || ready.Unready[0] != "shard01" {
		t.Fatalf("unready = %v, want [shard01]", ready.Unready)
	}

	// The fast path to a healthy shard still works.
	for i := 1; i <= 6; i++ {
		id := fmt.Sprintf("v%02d", i)
		if fx.sharded.Ring().Owner(id) == "shard01" {
			continue
		}
		rec, _ := routerGet(t, router, "/vehicles/"+id+"/forecast")
		if rec.Code != http.StatusOK {
			t.Errorf("healthy-shard vehicle %s = %d", id, rec.Code)
		}
	}
}

// TestRouterTelemetryOwnerRouted: a batch posted at the router is
// split by ring owner and lands in the store once (here every shard
// server wraps the same store; the per-shard-store topology is covered
// by TestRouterTelemetryPartitioned), with the per-vehicle results
// merged from the owner sub-batches.
func TestRouterTelemetryOwnerRouted(t *testing.T) {
	fx := buildCluster(t, 6, 3, 1, RouterOptions{})
	day := "2016-03-01"
	var reports []string
	for i := 1; i <= 6; i++ {
		reports = append(reports, fmt.Sprintf(`{"vehicle":"v%02d","date":%q,"seconds":12345}`, i, day))
	}
	body := `{"reports":[` + strings.Join(reports, ",") + `]}`
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	fx.router.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry = %d: %s", rec.Code, rec.Body)
	}
	var tr TelemetryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted != 6 || tr.Rejected != 0 || tr.Changed != 6 {
		t.Fatalf("merged batch result %+v, want 6 accepted/changed", tr.BatchResult)
	}
	if len(tr.Vehicles) != 6 {
		t.Fatalf("merged per-vehicle results cover %d vehicles, want 6", len(tr.Vehicles))
	}
	if !tr.RetrainStarted {
		t.Fatal("retrain not kicked with retrain-dirty=1")
	}
}

// TestRouterTelemetrySharedStoreFastPath: with SharedIngest set (the
// in-process topology) a batch is upserted exactly once — the store's
// accepted counter advances by the batch size, not N x — and shards
// still evaluate their retrain triggers.
func TestRouterTelemetrySharedStoreFastPath(t *testing.T) {
	fx := buildCluster(t, 6, 3, 1, RouterOptions{})
	// Rebuild the router with the fast path enabled on the same store
	// and shard backends.
	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := NewWithOptions(sh.Engine, Options{Ingest: fx.store, RetrainDirty: 1})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{SharedIngest: fx.store})
	if err != nil {
		t.Fatal(err)
	}

	before := fx.store.Stats().Accepted
	var reports []string
	for i := 1; i <= 6; i++ {
		reports = append(reports, fmt.Sprintf(`{"vehicle":"v%02d","date":"2016-04-01","seconds":11111}`, i))
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(`{"reports":[`+strings.Join(reports, ",")+`]}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry = %d: %s", rec.Code, rec.Body)
	}
	var tr TelemetryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted != 6 || tr.Changed != 6 {
		t.Fatalf("fast-path batch result %+v, want 6 accepted/changed", tr.BatchResult)
	}
	if !tr.RetrainStarted {
		t.Fatal("retrain trigger not evaluated on shards")
	}
	// One upsert, not one per shard.
	if got := fx.store.Stats().Accepted - before; got != 6 {
		t.Fatalf("store accepted %d reports for a 6-report batch, want exactly 6 (single upsert)", got)
	}
}

// TestRouterAffinityUnderRetrain hammers per-vehicle routes and
// fleet-wide merges while every shard retrains concurrently (run with
// -race): affinity must hold (owner shard serves its vehicle) and
// merged reads must stay complete and ordered.
func TestRouterAffinityUnderRetrain(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})
	stop := make(chan struct{})
	retrainDone := make(chan struct{})
	go func() {
		defer close(retrainDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = fx.sharded.RetrainAll(context.Background())
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("v%02d", (w+i)%9+1)
				rec, _ := routerGet(t, fx.router, "/vehicles/"+id+"/forecast")
				if rec.Code != http.StatusOK {
					t.Errorf("vehicle %s = %d mid-retrain", id, rec.Code)
					return
				}
				if got, want := rec.Header().Get("X-Fleet-Shard"), fx.sharded.Ring().Owner(id); got != want {
					t.Errorf("vehicle %s served by %q, want owner %q", id, got, want)
					return
				}
				rec, body := routerGet(t, fx.router, "/fleet/forecast")
				if rec.Code != http.StatusOK {
					t.Errorf("/fleet/forecast = %d mid-retrain", rec.Code)
					return
				}
				var ff FleetForecastJSON
				if err := json.Unmarshal(body, &ff); err != nil {
					t.Error(err)
					return
				}
				if len(ff.Forecasts) != 9 {
					t.Errorf("merged read lost vehicles: %d of 9", len(ff.Forecasts))
					return
				}
				for j := 1; j < len(ff.Forecasts); j++ {
					if ff.Forecasts[j-1].VehicleID >= ff.Forecasts[j].VehicleID {
						t.Errorf("merge order broken mid-retrain")
						return
					}
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer did not finish")
	}
	close(stop)
	<-retrainDone
}

// TestRouterDisableIngest: with CSV-mode shards the router 404s the
// ingest routes itself instead of relaying per-shard 404s.
func TestRouterDisableIngest(t *testing.T) {
	fx := buildCluster(t, 3, 3, 0, RouterOptions{})
	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := New(sh.Engine) // no ingest store mounted
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{DisableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /telemetry with ingest disabled = %d, want 404", rec.Code)
	}
	rec, _ = routerGet(t, router, "/admin/ingest")
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /admin/ingest with ingest disabled = %d, want 404", rec.Code)
	}
	// The rest of the surface is unaffected.
	rec, _ = routerGet(t, router, "/fleet/forecast")
	if rec.Code != http.StatusOK {
		t.Errorf("/fleet/forecast = %d", rec.Code)
	}
}

// TestRouterPlan: the fleet-wide plan schedules every vehicle once.
func TestRouterPlan(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	rec, body := routerGet(t, fx.router, "/fleet/plan?capacity=3&horizon=2000&maxlead=2000")
	if rec.Code != http.StatusOK {
		t.Fatalf("/fleet/plan = %d: %s", rec.Code, body)
	}
	var plan PlanJSON
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Assignments) + len(plan.Unscheduled); got != 6 {
		t.Fatalf("plan covers %d vehicles, want 6 (%+v)", got, plan)
	}
}
