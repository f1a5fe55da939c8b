package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// ingestServer seeds an ingest store with the tiny deterministic fleet,
// trains the initial snapshot from it, and wraps everything with the
// live-ingestion surface enabled.
func ingestServer(t testing.TB, retrainDirty int) (*Server, *engine.Engine, *ingest.Store) {
	t.Helper()
	store := seededStore(t)
	cfg := testEngineConfig()
	cfg.Source = store.Fleet
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(eng, Options{Ingest: store, RetrainDirty: retrainDirty})
	if err != nil {
		t.Fatal(err)
	}
	return srv, eng, store
}

// seededStore is an in-memory ingest store holding the tiny fleet.
func seededStore(t testing.TB) *ingest.Store {
	t.Helper()
	store := ingest.New(600_000)
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	var reports []ingest.Report
	for _, v := range tinyFleet(t) {
		for d, sec := range v.Series.U {
			reports = append(reports, ingest.Report{
				VehicleID: v.Series.ID,
				Date:      start.AddDate(0, 0, d),
				Seconds:   sec,
			})
		}
	}
	if res, _ := store.UpsertBatch(reports); res.Rejected != 0 {
		t.Fatalf("seeding rejected %d reports", res.Rejected)
	}
	return store
}

func postJSON(t testing.TB, srv *Server, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestTelemetryAcceptReject(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	rec, body := postJSON(t, srv, "/telemetry", `{"reports":[
		{"vehicle":"v01","date":"2016-02-10","seconds":12345},
		{"vehicle":"v01","date":"not-a-date","seconds":1},
		{"vehicle":"v02","date":"2016-02-10","seconds":-4},
		{"vehicle":"v02","date":"2016-02-11","seconds":8000}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var res TelemetryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Rejected != 2 {
		t.Fatalf("accepted=%d rejected=%d, want 2/2", res.Accepted, res.Rejected)
	}
	if v1 := res.Vehicles["v01"]; v1 == nil || v1.Accepted != 1 || v1.Rejected != 1 {
		t.Fatalf("v01 = %+v", v1)
	}
	if v2 := res.Vehicles["v02"]; v2 == nil || v2.Accepted != 1 || v2.Rejected != 1 {
		t.Fatalf("v02 = %+v", v2)
	}
	if res.RetrainStarted {
		t.Fatal("retrain started with threshold disabled")
	}

	// The ingest stats endpoint reflects the upload.
	rec, body = get(t, srv, "/admin/ingest")
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest stats status %d", rec.Code)
	}
	var stats IngestStatsJSON
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Vehicles != 3 || stats.Rejected != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Boot-seeded telemetry is baselined away at construction; only the
	// upload's two vehicles count as dirty.
	if len(stats.DirtySinceLastRetrain) != 2 {
		t.Fatalf("dirty = %v", stats.DirtySinceLastRetrain)
	}
}

func TestTelemetryMalformedBody(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	rec, _ := postJSON(t, srv, "/telemetry", `{"reports": [`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

func TestTelemetryIdempotentRedelivery(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	batch := `{"reports":[{"vehicle":"v01","date":"2016-03-01","seconds":9000}]}`
	if rec, body := postJSON(t, srv, "/telemetry", batch); rec.Code != http.StatusOK {
		t.Fatalf("first delivery: %d %s", rec.Code, body)
	}
	_, body := postJSON(t, srv, "/telemetry", batch)
	var res TelemetryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Changed != 0 {
		t.Fatalf("re-delivery accepted=%d changed=%d, want 1/0", res.Accepted, res.Changed)
	}
}

// TestTelemetryIncrementalRetrain is the acceptance path: a telemetry
// batch for one vehicle trips the dirty threshold, and the resulting
// retrain touches only that vehicle. Days that complete no maintenance
// cycle add no labels, so its model is carried forward too and only its
// forecast moves; the batch that completes its cycle retrains it alone —
// the other vehicles' models are carried forward pointer-equal.
func TestTelemetryIncrementalRetrain(t *testing.T) {
	srv, eng, _ := ingestServer(t, 1)
	post := func(from time.Time, days int) *engine.Snapshot {
		t.Helper()
		before := eng.Snapshot()
		var reports []string
		for d := 0; d < days; d++ {
			reports = append(reports, fmt.Sprintf(`{"vehicle":"v02","date":"%s","seconds":17000}`, from.AddDate(0, 0, d).Format("2006-01-02")))
		}
		rec, body := postJSON(t, srv, "/telemetry", `{"reports":[`+strings.Join(reports, ",")+`]}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
		var res TelemetryResponse
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if !res.RetrainStarted {
			t.Fatal("threshold=1 batch did not start a retrain")
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if after := eng.Snapshot(); after.Generation > before.Generation {
				return after
			}
			if time.Now().After(deadline) {
				t.Fatal("background retrain never landed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	before := eng.Snapshot()
	from := time.Date(2016, 2, 10, 0, 0, 0, 0, time.UTC)
	after := post(from, 5)
	if after.Retrained != 0 || after.Reused != 3 {
		t.Fatalf("tail days: retrained=%d reused=%d, want 0/3", after.Retrained, after.Reused)
	}
	for _, id := range []string{"v01", "v02", "v03"} {
		if after.Models[id] != before.Models[id] {
			t.Errorf("tail days retrained vehicle %s", id)
		}
	}
	if after.ForecastByID["v02"].AsOfDay <= before.ForecastByID["v02"].AsOfDay {
		t.Errorf("v02's forecast stayed as of day %d", after.ForecastByID["v02"].AsOfDay)
	}

	// 40 days × 17 000 s passes the 600 000 s allowance: v02 is maintained.
	before = after
	after = post(from.AddDate(0, 0, 5), 40)
	if after.Retrained != 1 || after.Reused != 2 {
		t.Fatalf("cycle-completing batch: retrained=%d reused=%d, want 1/2", after.Retrained, after.Reused)
	}
	for _, id := range []string{"v01", "v03"} {
		if after.Models[id] != before.Models[id] {
			t.Errorf("clean vehicle %s was retrained", id)
		}
	}
	if after.Models["v02"] == before.Models["v02"] {
		t.Error("v02 kept its model across a completed cycle")
	}
}

// TestFailedKickRollsBackDirtyBaseline: a threshold-kicked build that
// fails must not consume its dirty set — the vehicles it covered count
// again, so a later batch re-triggers even though it alone is under
// the threshold. A shard over a shared store that owns none of the
// changed vehicles retries the same way: a failed shard counts every
// change.
func TestFailedKickRollsBackDirtyBaseline(t *testing.T) {
	for _, owns := range []func(string) bool{nil, func(string) bool { return false }} {
		failedKickRollsBack(t, owns)
	}
}

func failedKickRollsBack(t *testing.T, owns func(string) bool) {
	store := seededStore(t)

	var failFetch atomic.Bool
	cfg := testEngineConfig()
	cfg.Source = func(ctx context.Context) ([]engine.Vehicle, error) {
		if failFetch.Load() {
			return nil, errors.New("telemetry backend down")
		}
		return store.Fleet(ctx)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(eng, Options{Ingest: store, RetrainDirty: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Two vehicles change; the kicked build fails.
	failFetch.Store(true)
	rec, body := postJSON(t, srv, "/telemetry", `{"reports":[
		{"vehicle":"v01","date":"2016-02-10","seconds":17000},
		{"vehicle":"v02","date":"2016-02-10","seconds":17000}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var res TelemetryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.RetrainStarted {
		t.Fatal("threshold batch did not kick a retrain")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := eng.Status()
		if !st.Retraining && st.LastError != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("kicked build never failed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// One more vehicle changes — alone under the threshold, but with
	// the failed kick's set rolled back it makes three.
	failFetch.Store(false)
	srv.owns = owns
	_, body = postJSON(t, srv, "/telemetry", `{"reports":[{"vehicle":"v03","date":"2016-02-10","seconds":17000}]}`)
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.RetrainStarted {
		t.Fatal("dirty set of the failed kick was consumed: follow-up batch did not re-trigger")
	}
	for eng.Snapshot().Generation < 2 {
		if time.Now().After(deadline) {
			t.Fatal("recovery retrain never landed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRefusedKickIsCoveredWithoutAnotherPost: a report acknowledged
// while a build holds the engine gets retrain_started:false, yet its
// forecast catches up on its own — the engine runs one follow-up build
// when the one in flight releases — and three such reports cost one
// extra generation, not three.
func TestRefusedKickIsCoveredWithoutAnotherPost(t *testing.T) {
	store := seededStore(t)
	var hold atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	cfg := testEngineConfig()
	cfg.Source = func(ctx context.Context) ([]engine.Vehicle, error) {
		fleet, err := store.Fleet(ctx)
		if hold.CompareAndSwap(true, false) {
			// The build has read the store: what arrives from here on it
			// cannot cover.
			entered <- struct{}{}
			<-release
		}
		return fleet, err
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(eng, Options{Ingest: store, RetrainDirty: 1})
	if err != nil {
		t.Fatal(err)
	}
	post := func(vehicle, date string) bool {
		t.Helper()
		rec, body := postJSON(t, srv, "/telemetry", fmt.Sprintf(`{"reports":[{"vehicle":%q,"date":%q,"seconds":17000}]}`, vehicle, date))
		var res TelemetryResponse
		if err := json.Unmarshal(body, &res); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("POST /telemetry: %d %s (%v)", rec.Code, body, err)
		}
		return res.RetrainStarted
	}

	hold.Store(true)
	if !post("v01", "2016-02-10") {
		t.Fatal("first report did not start a retrain")
	}
	<-entered
	for _, r := range [][2]string{{"v02", "2016-02-10"}, {"v02", "2016-02-11"}, {"v03", "2016-02-10"}} {
		if post(r[0], r[1]) {
			t.Fatalf("report for %s started a second build while one is in flight", r[0])
		}
	}
	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for eng.Status().Retraining {
		if time.Now().After(deadline) {
			t.Fatal("engine never went idle")
		}
		time.Sleep(time.Millisecond)
	}

	snap := eng.Snapshot()
	if snap.Generation != 3 { // initial, the held build, one follow-up
		t.Fatalf("generation %d after 3 refused kicks, want 3", snap.Generation)
	}
	fleet, err := store.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fleet {
		if got, want := snap.ForecastByID[v.Series.ID].AsOfDay, len(v.Series.U)-1; got != want {
			t.Errorf("vehicle %s forecast is as of day %d, want %d (its last report)", v.Series.ID, got, want)
		}
	}
	// The refusals moved the sequence point: nothing is left dirty, and
	// a redelivery kicks nothing.
	if post("v03", "2016-02-10") || eng.Status().Retraining {
		t.Fatal("redelivered report kicked another retrain")
	}
}

func TestTelemetryDisabledWithoutStore(t *testing.T) {
	srv := buildServer(t) // no ingest store
	rec, _ := postJSON(t, srv, "/telemetry", `{"reports":[]}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	if rec, _ := get(t, srv, "/admin/ingest"); rec.Code != http.StatusNotFound {
		t.Fatalf("ingest stats status %d, want 404", rec.Code)
	}
}

// TestRetrainFullQuery: ?full=1 is the escape hatch that rebuilds
// every vehicle from scratch.
func TestRetrainFullQuery(t *testing.T) {
	srv, eng, _ := ingestServer(t, 0)
	if snap, err := eng.RetrainFromSource(context.Background()); err != nil || snap.Reused != 3 {
		t.Fatalf("clean incremental retrain: snap=%+v err=%v", snap, err)
	}
	rec, body := do(t, srv, http.MethodPost, "/admin/retrain?wait=1&full=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	snap := eng.Snapshot()
	if snap.Reused != 0 || snap.Retrained != 3 {
		t.Fatalf("full rebuild reused=%d retrained=%d, want 0/3", snap.Reused, snap.Retrained)
	}
}

func TestRetrainBadFullQuery(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	rec, _ := do(t, srv, http.MethodPost, "/admin/retrain?full=maybe")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

func TestNewWithOptionsValidation(t *testing.T) {
	cfg := testEngineConfig()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithOptions(eng, Options{RetrainDirty: 2}); err == nil {
		t.Fatal("RetrainDirty without a store accepted")
	}
}

// TestKickCheckAllocs pins the dirty-threshold check every acknowledged
// batch runs (and, under -shards, every shard per router batch) at zero
// allocations: a count that stops at the threshold, not a sorted list
// of the dirty vehicles — also in a shard's form, which asks the ring
// who owns each dirty vehicle.
func TestKickCheckAllocs(t *testing.T) {
	srv, _, _ := ingestServer(t, 2)
	if rec, body := postJSON(t, srv, "/telemetry", `{"reports":[{"vehicle":"v01","date":"2016-02-10","seconds":17000}]}`); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	check := func(label string) {
		t.Helper()
		if n := testing.AllocsPerRun(100, func() {
			if srv.maybeKickRetrain(context.Background()) {
				t.Fatal("one dirty vehicle met a threshold of two")
			}
		}); n != 0 {
			t.Fatalf("%s kick check allocates %v/op, want 0", label, n)
		}
	}
	check("unsharded")
	ring, err := cluster.NewRingOf(0, cluster.ShardNames(3)...)
	if err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner("v01")
	srv.owns = func(id string) bool { return ring.Owner(id) == owner }
	check("shard")
}
