package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/wal"
)

// kickDay0 is the first day of every vehicle in the shared-kick fleet.
var kickDay0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// kickUsage is a vehicle's deterministic daily usage: weekends idle,
// weekdays around `daily` with per-vehicle jitter.
func kickUsage(id string, day int, daily float64) float64 {
	if day%7 >= 5 {
		return 0
	}
	return daily + float64((day*37+len(id)*13+int(id[len(id)-1])*7)%1000)
}

func kickReports(id string, from, to int, daily float64) []ingest.Report {
	var out []ingest.Report
	for d := from; d < to; d++ {
		out = append(out, ingest.Report{VehicleID: id, Date: kickDay0.AddDate(0, 0, d), Seconds: kickUsage(id, d, daily)})
	}
	return out
}

// categoryAfter is the category the store's pipeline gives a vehicle
// whose telemetry is days [0, days) of kickUsage.
func categoryAfter(t *testing.T, id string, days int, daily float64) core.Category {
	t.Helper()
	s := ingest.New(600_000)
	if _, err := s.UpsertBatch(kickReports(id, 0, days, daily)); err != nil {
		t.Fatal(err)
	}
	fleet, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return core.Categorize(fleet[0].Series)
}

// TestSharedStoreKickMovesOnlyChangedShards drives `fleetserver -shards
// 3 -ingest -retrain-dirty 1` in process: three shard servers over one
// shared, durable ingest store behind a router that upserts each report
// once and runs every shard's retrain check. Every shard owns old and
// cold-start vehicles. A report that moves only its own vehicle's
// forecast builds on the owner alone — the other shards neither build
// nor publish; the report that completes a semi-new vehicle's first
// cycle, and a backfill inside an old vehicle's first cycle, change the
// donor pool and build and publish on every shard. After a restart from
// a checkpoint, the first tail-day report again builds only on its
// owner. After each step — with no explicit retrain — the router's
// /fleet/forecast is byte-identical to an unsharded engine's on the
// same store, and no shard has built anything it then left unpublished.
func TestSharedStoreKickMovesOnlyChangedShards(t *testing.T) {
	const (
		oldDays     = 400
		semiNewDays = 26
		newDays     = 10
		daily       = 18000
	)
	names := cluster.ShardNames(3)
	ring, err := cluster.NewRingOf(0, names...)
	if err != nil {
		t.Fatal(err)
	}
	// Two old vehicles, one semi-new and one new on every shard.
	want := map[string][]int{}
	for _, n := range names {
		want[n] = []int{oldDays, oldDays, semiNewDays, newDays}
	}
	days := map[string]int{}
	var seed []ingest.Report
	for i := 1; len(days) < 4*len(names); i++ {
		id := fmt.Sprintf("v%02d", i)
		owner := ring.Owner(id)
		if len(want[owner]) == 0 {
			continue
		}
		days[id], want[owner] = want[owner][0], want[owner][1:]
		seed = append(seed, kickReports(id, 0, days[id], daily)...)
	}
	walDir := t.TempDir()
	openStore := func() *ingest.Store {
		store, err := ingest.OpenDurable(600_000, ingest.DurableOptions{Dir: walDir, Fsync: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	store := openStore()
	defer func() { store.Close() }()
	if _, err := store.UpsertBatch(seed); err != nil {
		t.Fatal(err)
	}

	// boot trains a sharded cluster from the store and fronts it with the
	// shared-store router, as fleetserver -shards does.
	var (
		sharded *cluster.Sharded
		servers map[string]*Server
		router  *Router
	)
	boot := func() {
		t.Helper()
		sharded, err = cluster.NewSharded(cluster.ShardedConfig{Engine: testEngineConfig(), Base: store.Fleet, Names: names})
		if err != nil {
			t.Fatal(err)
		}
		if err := sharded.RetrainAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		servers = map[string]*Server{}
		var backends []ShardBackend
		for _, sh := range sharded.Shards() {
			srv, err := NewWithOptions(sh.Engine, Options{Ingest: store, RetrainDirty: 1})
			if err != nil {
				t.Fatal(err)
			}
			servers[sh.Name] = srv
			backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
		}
		if router, err = NewRouter(sharded.Ring(), backends, RouterOptions{SharedIngest: store}); err != nil {
			t.Fatal(err)
		}
	}
	boot()

	// counts reads one engine counter per shard from its /metrics: the
	// builds that fetched the source (the prep stage), or those that
	// came out unchanged.
	counts := func(name string) map[string]string {
		out := map[string]string{}
		for shard, srv := range servers {
			rec, body := get(t, srv, "/metrics")
			if rec.Code != http.StatusOK {
				t.Fatalf("shard %s /metrics = %d", shard, rec.Code)
			}
			out[shard] = metricValue(t, string(body), name)
		}
		return out
	}
	const builds, unchanged = `fleet_train_stage_seconds_count{stage="prep"}`, "fleet_retrain_unchanged_total"
	generations := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, sh := range sharded.Shards() {
			out[sh.Name] = sh.Engine.Status().Generation
		}
		return out
	}
	coldStartOwners := map[string]bool{}
	for _, sh := range sharded.Shards() {
		for _, st := range sh.Engine.Snapshot().Statuses {
			if st.Category != core.Old {
				coldStartOwners[sh.Name] = true
			}
		}
	}
	if len(coldStartOwners) != len(names) {
		t.Fatalf("cold-start vehicles on %d of %d shards; the fixture wants them on every shard", len(coldStartOwners), len(names))
	}

	// report posts one JSON batch through the router, waits for every
	// kicked build, and returns the shards that built and those whose
	// generation moved.
	report := func(label string, reports []ingest.Report) (built, moved map[string]bool) {
		t.Helper()
		before, buildsBefore := generations(), counts(builds)
		var rows []string
		for _, r := range reports {
			rows = append(rows, fmt.Sprintf(`{"vehicle":%q,"date":%q,"seconds":%v}`, r.VehicleID, r.Date.Format("2006-01-02"), r.Seconds))
		}
		req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(`{"reports":[`+strings.Join(rows, ",")+`]}`))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: POST /telemetry = %d: %s", label, rec.Code, rec.Body)
		}
		deadline := time.Now().Add(30 * time.Second)
		for _, sh := range sharded.Shards() {
			for sh.Engine.Status().Retraining {
				if time.Now().After(deadline) {
					t.Fatalf("%s: shard %s never went idle", label, sh.Name)
				}
				time.Sleep(time.Millisecond)
			}
			if st := sh.Engine.Status(); st.LastError != "" {
				t.Fatalf("%s: shard %s: %s", label, sh.Name, st.LastError)
			}
		}
		moved, built = map[string]bool{}, map[string]bool{}
		for name, gen := range generations() {
			switch {
			case gen == before[name]+1:
				moved[name] = true
			case gen != before[name]:
				t.Fatalf("%s: shard %s went from generation %d to %d, want at most one publish", label, name, before[name], gen)
			}
		}
		for name, n := range counts(builds) {
			if n != buildsBefore[name] {
				built[name] = true
			}
		}
		for name, n := range counts(unchanged) {
			if n != "0" {
				t.Fatalf("%s: shard %s built %s generations it did not publish", label, name, n)
			}
		}

		// The unsharded reference: a fresh engine over the same store.
		cfg := testEngineConfig()
		cfg.Source = store.Fleet
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
		gotRec, got := routerGet(t, router, "/fleet/forecast")
		if gotRec.Code != http.StatusOK || string(got) != wantRec.Body.String() {
			t.Fatalf("%s: router /fleet/forecast (%d) differs from the unsharded engine's:\nrouter %s\nsingle %s", label, gotRec.Code, got, wantRec.Body)
		}
		return built, moved
	}
	onlyOwner := func(label, id string, reports []ingest.Report) {
		t.Helper()
		built, moved := report(label, reports)
		owner := ring.Owner(id)
		if len(built) != 1 || !built[owner] {
			t.Fatalf("%s: shards %v built, want only %s's owner %s", label, built, id, owner)
		}
		if len(moved) != 1 || !moved[owner] {
			t.Fatalf("%s: generations moved on %v, want only %s's owner %s", label, moved, id, owner)
		}
	}
	everyShard := func(label string, reports []ingest.Report) {
		t.Helper()
		built, moved := report(label, reports)
		for _, name := range names {
			if !built[name] || !moved[name] {
				t.Fatalf("%s: shards %v built and %v published, want every shard", label, built, moved)
			}
		}
	}

	var oldID, semiID, newID string
	for id, d := range days {
		switch {
		case d == oldDays && (oldID == "" || id < oldID):
			oldID = id
		case d == semiNewDays && (semiID == "" || id < semiID):
			semiID = id
		case d == newDays && (newID == "" || id < newID):
			newID = id
		}
	}

	onlyOwner("old vehicle's tail day", oldID, kickReports(oldID, oldDays, oldDays+1, daily))
	onlyOwner("new vehicle's tail day", newID, kickReports(newID, newDays, newDays+1, daily))

	// Bring the semi-new vehicle to one day short of its first
	// maintenance, then report that day.
	complete := semiNewDays + 1
	for categoryAfter(t, semiID, complete, daily) != core.Old {
		complete++
	}
	onlyOwner("semi-new vehicle's tail days", semiID, kickReports(semiID, semiNewDays, complete-1, daily))
	everyShard("first maintenance", kickReports(semiID, complete-1, complete, daily))

	// A corrected day inside the old vehicle's first cycle rewrites a
	// donor's first cycle: every shard's cold-start models read it.
	backfill := kickReports(oldID, 3, 4, daily)
	backfill[0].Seconds += 1000
	everyShard("backfill inside a first cycle", backfill)

	// Restart from a checkpoint: the store reloads with no donor view
	// known, and finding one on the first touch is not a change.
	if _, err := store.CheckpointAndCompact(); err != nil {
		t.Fatal(err)
	}
	store.Close()
	store = openStore()
	boot()
	onlyOwner("old vehicle's tail day after a restart", oldID, kickReports(oldID, oldDays+1, oldDays+2, daily))
}

// TestSharedStoreDirtyListsWhatTheShardReads: under -retrain-dirty 2 a
// shard that has one changed vehicle of its own waits for a second, and
// its dirty_since_last_retrain lists only the vehicles it reads: a tail
// day of another shard's old vehicle never joins the list.
func TestSharedStoreDirtyListsWhatTheShardReads(t *testing.T) {
	store := genStore(t, 9)
	sharded, err := cluster.NewSharded(cluster.ShardedConfig{Engine: testEngineConfig(), Base: store.Fleet, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.RetrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	servers := map[string]*Server{}
	var backends []ShardBackend
	oldOf := map[string]string{} // shard -> the first old vehicle it owns
	for _, sh := range sharded.Shards() {
		srv, err := NewWithOptions(sh.Engine, Options{Ingest: store, RetrainDirty: 2})
		if err != nil {
			t.Fatal(err)
		}
		servers[sh.Name] = srv
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
		for _, st := range sh.Engine.Snapshot().Statuses {
			if st.Category == core.Old && oldOf[sh.Name] == "" {
				oldOf[sh.Name] = st.ID
			}
		}
	}
	router, err := NewRouter(sharded.Ring(), backends, RouterOptions{SharedIngest: store})
	if err != nil {
		t.Fatal(err)
	}
	names := sharded.Ring().Shards()
	a, b := oldOf[names[0]], oldOf[names[1]]
	if a == "" || b == "" {
		t.Fatalf("old vehicles by shard %v; the fixture wants one on each of the first two", oldOf)
	}
	for _, id := range []string{a, b} {
		if postTail(t, router, id, 1) {
			t.Fatalf("a tail day of %s met a threshold of two", id)
		}
	}
	want := map[string][]string{names[0]: {a}, names[1]: {b}, names[2]: nil}
	for name, srv := range servers {
		rec, body := get(t, srv, "/admin/ingest")
		var st IngestStatsJSON
		if rec.Code != http.StatusOK || jsonDecode(body, &st) != nil {
			t.Fatalf("shard %s /admin/ingest = %d: %s", name, rec.Code, body)
		}
		if !slices.Equal(st.DirtySinceLastRetrain, want[name]) {
			t.Fatalf("shard %s dirty_since_last_retrain %v, want %v", name, st.DirtySinceLastRetrain, want[name])
		}
	}
}
