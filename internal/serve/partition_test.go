package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/wal"
)

// partitionedCluster is the multi-process topology in miniature:
// per-shard stores holding only ring-owned vehicles, real HTTP between
// router and shards (NewRemoteBackend) and between shards (the donor
// exchange), exactly as `fleetserver -join` wires it.
type partitionedCluster struct {
	router *Router
	ring   *cluster.Ring
	stores map[string]*ingest.Store
	shards map[string]*engine.Engine
	httpds []*httptest.Server
}

// lateURLs lets shard engines be built before the peer HTTP servers
// exist: the donor-exchange source resolves the URL list at fetch time.
type lateURLs struct{ urls []string }

func buildPartitionedCluster(t testing.TB, vehicles, shards, retrainDirty int) *partitionedCluster {
	t.Helper()
	names := cluster.ShardNames(shards)
	ring, err := cluster.NewRingOf(0, names...)
	if err != nil {
		t.Fatal(err)
	}
	fleet := genVehicles(t, vehicles)
	start := fleet[0].Start

	pc := &partitionedCluster{
		ring:   ring,
		stores: make(map[string]*ingest.Store, shards),
		shards: make(map[string]*engine.Engine, shards),
	}
	late := make(map[string]*lateURLs, shards)
	var backends []ShardBackend
	for _, name := range names {
		store := ingest.New(600_000)
		var reports []ingest.Report
		for _, v := range fleet {
			if ring.Owner(v.Series.ID) != name {
				continue
			}
			for d, sec := range v.Series.U {
				reports = append(reports, ingest.Report{VehicleID: v.Series.ID, Date: start.AddDate(0, 0, d), Seconds: sec})
			}
		}
		if len(reports) > 0 {
			if res, _ := store.UpsertBatch(reports); res.Rejected != 0 {
				t.Fatalf("seeding shard %s rejected %d reports", name, res.Rejected)
			}
		}
		pc.stores[name] = store

		lu := &lateURLs{}
		late[name] = lu
		cfg := testEngineConfig()
		own := store.Fleet
		cfg.Source = func(ctx context.Context) ([]engine.Vehicle, error) {
			return cluster.DonorExchangeSource(own, lu.urls, 600_000, nil)(ctx)
		}
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pc.shards[name] = eng

		srv, err := NewWithOptions(eng, Options{Ingest: store, RetrainDirty: retrainDirty})
		if err != nil {
			t.Fatal(err)
		}
		httpd := httptest.NewServer(srv)
		t.Cleanup(httpd.Close)
		pc.httpds = append(pc.httpds, httpd)
		backends = append(backends, NewRemoteBackend(name, httpd.URL, nil))
	}
	// Close the loop: every shard now knows its peers' URLs.
	for i, name := range names {
		for j := range names {
			if i != j {
				late[name].urls = append(late[name].urls, pc.httpds[j].URL)
			}
		}
	}
	for _, name := range names {
		if _, err := pc.shards[name].RetrainFromSource(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	pc.router, err = NewRouter(ring, backends, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// TestPartitionedClusterBitIdentical: the acceptance contract over the
// real HTTP surface — a 3-shard cluster whose stores partition the raw
// telemetry ~1/N (no broadcast, donors over the wire) serves a
// /fleet/forecast byte-identical to one unsharded server over the
// union of the telemetry.
func TestPartitionedClusterBitIdentical(t *testing.T) {
	const vehicles = 9
	pc := buildPartitionedCluster(t, vehicles, 3, 0)

	// Raw telemetry genuinely partitions: stores are disjoint, none
	// holds the fleet, and they sum to it.
	total := 0
	for name, store := range pc.stores {
		n := len(store.Vehicles())
		if n == vehicles {
			t.Fatalf("shard %s stores all %d vehicles — broadcast not removed", name, n)
		}
		total += n
		for _, id := range store.Vehicles() {
			if pc.ring.Owner(id) != name {
				t.Fatalf("shard %s stores %s owned by %s", name, id, pc.ring.Owner(id))
			}
		}
	}
	if total != vehicles {
		t.Fatalf("stores hold %d vehicles total, want %d", total, vehicles)
	}

	// Unsharded reference over the union.
	fullStore := ingest.New(600_000)
	fleet := genVehicles(t, vehicles)
	var reports []ingest.Report
	for _, v := range fleet {
		for d, sec := range v.Series.U {
			reports = append(reports, ingest.Report{VehicleID: v.Series.ID, Date: fleet[0].Start.AddDate(0, 0, d), Seconds: sec})
		}
	}
	if _, err := fullStore.UpsertBatch(reports); err != nil {
		t.Fatal(err)
	}
	cfg := testEngineConfig()
	cfg.Source = fullStore.Fleet
	single, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	singleSrv, err := New(single)
	if err != nil {
		t.Fatal(err)
	}

	wantRec := httptest.NewRecorder()
	singleSrv.ServeHTTP(wantRec, httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil))
	rec, body := routerGet(t, pc.router, "/fleet/forecast")
	if rec.Code != http.StatusOK {
		t.Fatalf("router /fleet/forecast = %d: %s", rec.Code, body)
	}
	if got, want := string(body), wantRec.Body.String(); got != want {
		t.Fatalf("partitioned cluster differs from unsharded:\ncluster %s\nsingle  %s", got, want)
	}
}

// TestRouterTelemetryPartitioned: a batch POSTed at the router reaches
// each vehicle's owner shard only — non-owner stores never see the
// vehicle — and the merged response carries the full accept/changed
// accounting.
func TestRouterTelemetryPartitioned(t *testing.T) {
	const vehicles = 6
	pc := buildPartitionedCluster(t, vehicles, 3, 0)

	day := "2016-05-01"
	var rows []string
	for i := 1; i <= vehicles; i++ {
		rows = append(rows, fmt.Sprintf(`{"vehicle":"v%02d","date":%q,"seconds":12345}`, i, day))
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(`{"reports":[`+strings.Join(rows, ",")+`]}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	pc.router.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry = %d: %s", rec.Code, rec.Body)
	}
	var tr TelemetryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted != vehicles || tr.Changed != vehicles || tr.Rejected != 0 {
		t.Fatalf("merged result %+v, want %d accepted/changed", tr.BatchResult, vehicles)
	}
	if len(tr.Vehicles) != vehicles {
		t.Fatalf("per-vehicle results cover %d vehicles, want %d", len(tr.Vehicles), vehicles)
	}

	// Ownership check: each report landed exactly in its owner's store.
	for i := 1; i <= vehicles; i++ {
		id := fmt.Sprintf("v%02d", i)
		owner := pc.ring.Owner(id)
		for name, store := range pc.stores {
			_, stored := store.Hash(id)
			if name == owner && !stored {
				t.Errorf("owner %s lost vehicle %s", name, id)
			}
			if name != owner && stored {
				t.Errorf("non-owner %s stores vehicle %s (broadcast leak)", name, id)
			}
		}
	}
}

// TestReplayedWALDoesNotKickRetrain is satellite coverage for the
// dirty-accounting fix: a server booted over a WAL-recovered store
// with a restored snapshot must not treat replayed batches as fresh
// dirtiness — no phantom retrain kick, an empty dirty set, and the
// first real retrain reuses every covered vehicle.
func TestReplayedWALDoesNotKickRetrain(t *testing.T) {
	dir := t.TempDir()
	fleet := tinyFleet(t)
	start := fleet[0].Start

	// First life: durable store, trained snapshot, crash (no Close).
	store1, err := ingest.OpenDurable(600_000, ingest.DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var reports []ingest.Report
	for _, v := range fleet {
		for d, sec := range v.Series.U {
			reports = append(reports, ingest.Report{VehicleID: v.Series.ID, Date: start.AddDate(0, 0, d), Seconds: sec})
		}
	}
	if _, err := store1.UpsertBatch(reports); err != nil {
		t.Fatal(err)
	}
	cfg := testEngineConfig()
	cfg.Source = store1.Fleet
	eng1, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng1.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Second life: WAL replay reconstructs the store; the persisted
	// snapshot restores (snapstore in production, directly here).
	store2, err := ingest.OpenDurable(600_000, ingest.DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg2 := testEngineConfig()
	cfg2.Source = store2.Fleet
	eng2, err := engine.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Restore(snap, nil, false); err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(eng2, Options{Ingest: store2, RetrainDirty: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The replayed content is not fresh dirtiness.
	rec, body := doGet(t, srv, "/admin/ingest")
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/ingest = %d", rec.Code)
	}
	var st IngestStatsJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.DirtySinceLastRetrain) != 0 {
		t.Fatalf("replayed batches count as dirty: %v", st.DirtySinceLastRetrain)
	}
	if st.WAL == nil || st.WAL.ReplayRecords == 0 {
		t.Fatalf("WAL stats missing from /admin/ingest: %+v", st.WAL)
	}

	// An idempotent re-delivery must not kick a retrain.
	batch, err := json.Marshal(TelemetryRequest{Reports: []ReportJSON{{
		Vehicle: fleet[0].Series.ID,
		Date:    start.Format("2006-01-02"),
		Seconds: fleet[0].Series.U[0],
	}}})
	if err != nil {
		t.Fatal(err)
	}
	rec, body = postJSON(t, srv, "/telemetry", string(batch))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry = %d: %s", rec.Code, body)
	}
	var tres TelemetryResponse
	if err := json.Unmarshal(body, &tres); err != nil {
		t.Fatal(err)
	}
	if tres.Changed != 0 || tres.RetrainStarted {
		t.Fatalf("no-op redelivery after replay: %+v (retrain=%v), want no change, no retrain", tres.BatchResult, tres.RetrainStarted)
	}

	// The reconcile retrain (what fleetserver kicks at boot) reuses
	// every snapshot-covered vehicle: incremental, never a cold train.
	snap2, err := eng2.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Retrained != 0 || snap2.Reused != len(fleet) {
		t.Fatalf("reconcile retrain reused=%d retrained=%d, want %d/0", snap2.Reused, snap2.Retrained, len(fleet))
	}
}

// TestDonorsEndpoint: the shard-internal donor endpoint serves exactly
// the old vehicles, sorted, with their raw contiguous series.
func TestDonorsEndpoint(t *testing.T) {
	srv, _, store := ingestServer(t, 0)
	rec, body := doGet(t, srv, cluster.DonorsPath)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", cluster.DonorsPath, rec.Code, body)
	}
	var set DonorSet
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatal(err)
	}
	if len(set.Vehicles) == 0 {
		t.Fatal("no donors served for an old fleet")
	}
	for i, d := range set.Vehicles {
		if i > 0 && set.Vehicles[i-1].ID >= d.ID {
			t.Fatalf("donors not sorted: %s before %s", set.Vehicles[i-1].ID, d.ID)
		}
		start, u, ok := store.RawSeries(d.ID)
		if !ok {
			t.Fatalf("donor %s not in store", d.ID)
		}
		if d.Start != start.Format("2006-01-02") || len(d.U) != len(u) {
			t.Fatalf("donor %s wire mismatch", d.ID)
		}
	}
}

func doGet(t testing.TB, srv *Server, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}
