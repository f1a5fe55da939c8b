package serve

import (
	"context"
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

// The read-your-writes tests: a forecast read of a vehicle whose report
// the live generation does not cover waits for the build that covers it
// (see Server.awaitCoverage). Each names what it holds in its first
// line; all of them run race-clean at -count=20.

// rywServer is ingestServer with the engine's coverage wired to the
// store, as fleetserver wires it. wrap, when set, wraps the store's
// Fleet as the engine's source (to hold, fail or freeze a build).
func rywServer(t testing.TB, retrainDirty int, wrap func(engine.Source) engine.Source) (*Server, *engine.Engine, *ingest.Store) {
	t.Helper()
	store := seededStore(t)
	cfg := testEngineConfig()
	cfg.Source = store.Fleet
	if wrap != nil {
		cfg.Source = wrap(store.Fleet)
	}
	cfg.Seq = store.Seq
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

// heldSource holds one build from a source: once armed, the next fetch
// reports on entered and blocks until release is closed, then fails
// when fail is set.
type heldSource struct {
	armed, fail atomic.Bool
	entered     chan struct{}
	release     chan struct{}
}

func newHeldSource() *heldSource {
	return &heldSource{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (h *heldSource) wrap(src engine.Source) engine.Source {
	return func(ctx context.Context) ([]engine.Vehicle, error) {
		if h.armed.CompareAndSwap(true, false) {
			h.entered <- struct{}{}
			<-h.release
			if h.fail.Load() {
				return nil, errors.New("telemetry backend down")
			}
		}
		return src(ctx)
	}
}

// tailDay is the date of the tiny fleet's report n days past its last
// seeded day (400 days from 2015-01-01).
func tailDay(n int) time.Time {
	return time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 399+n)
}

// postTail acknowledges one tail-day report for id on the JSON door and
// returns whether it kicked a build.
func postTail(t testing.TB, h http.Handler, id string, n int) bool {
	t.Helper()
	body := fmt.Sprintf(`{"reports":[{"vehicle":%q,"date":%q,"seconds":17000}]}`, id, tailDay(n).Format("2006-01-02"))
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry: %d %s", rec.Code, rec.Body)
	}
	var res TelemetryResponse
	if err := jsonDecode(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	return res.RetrainStarted
}

// forecastRead is one GET /vehicles/{id}/forecast's answer.
type forecastRead struct {
	code int
	etag string
	body string
}

// readForecast is one GET /vehicles/{id}/forecast, conditional when
// inm is set.
func readForecast(t testing.TB, h http.Handler, id, inm string) forecastRead {
	t.Helper()
	rec, body := condGet(t, h, "/vehicles/"+id+"/forecast", inm)
	return forecastRead{code: rec.Code, etag: rec.Header().Get("ETag"), body: string(body)}
}

// waitCounts returns the finished waits by outcome name.
func waitCounts(s *Server) map[string]uint64 {
	out := make(map[string]uint64, numWaitOutcomes)
	for o, c := range s.waits {
		out[waitOutcomeNames[o]] = c.Value()
	}
	return out
}

// eventually polls cond for up to 10 s.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func idle(t testing.TB, engines ...*engine.Engine) {
	t.Helper()
	for _, eng := range engines {
		eventually(t, "the engine to go idle", func() bool { return !eng.Status().Retraining })
	}
}

// assertFreshFirstRead: first, the first read after a report's ack, must
// differ from before and be exactly what the server serves once every
// build has landed — the covering generation's bytes and tag.
func assertFreshFirstRead(t *testing.T, h http.Handler, id string, before, first forecastRead, engines ...*engine.Engine) {
	t.Helper()
	if first.code != http.StatusOK {
		t.Fatalf("first read after the ack: status %d: %s", first.code, first.body)
	}
	if first.body == before.body || first.etag == before.etag {
		t.Fatalf("first read after the ack answered the stale forecast (etag %s):\n%s", first.etag, first.body)
	}
	idle(t, engines...)
	if final := readForecast(t, h, id, ""); final != first {
		t.Fatalf("first read after the ack:\n%+v\nthe settled server serves:\n%+v", first, final)
	}
}

// TestReadYourWritesJSONDoor: a report acknowledged on the JSON door is
// reflected by the very next forecast read.
func TestReadYourWritesJSONDoor(t *testing.T) {
	srv, eng, _ := rywServer(t, 1, nil)
	before := readForecast(t, srv, "v02", "")
	if !postTail(t, srv, "v02", 1) {
		t.Fatal("the report did not kick a build")
	}
	assertFreshFirstRead(t, srv, "v02", before, readForecast(t, srv, "v02", ""), eng)
}

// TestReadYourWritesBinaryDoor: the same through the binary door.
func TestReadYourWritesBinaryDoor(t *testing.T) {
	srv, eng, _ := rywServer(t, 1, nil)
	before := readForecast(t, srv, "v03", "")
	rec, body := postBinary(t, srv, []ingest.Report{{VehicleID: "v03", Date: tailDay(1), Seconds: 17000}})
	if rec.Code != http.StatusOK {
		t.Fatalf("binary POST /telemetry: %d %s", rec.Code, body)
	}
	assertFreshFirstRead(t, srv, "v03", before, readForecast(t, srv, "v03", ""), eng)
}

// TestReadYourWritesExplicitRetrain: without a kick nothing is coming
// and a read answers at once, stale; after POST /admin/retrain (202,
// background) the next read is the build's.
func TestReadYourWritesExplicitRetrain(t *testing.T) {
	srv, eng, _ := rywServer(t, 0, nil)
	before := readForecast(t, srv, "v01", "")
	if postTail(t, srv, "v01", 1) {
		t.Fatal("a server without -retrain-dirty kicked a build")
	}
	if got := readForecast(t, srv, "v01", ""); got != before {
		t.Fatalf("with nothing coming the read changed:\n%+v\nwant\n%+v", got, before)
	}
	if rec, body := do(t, srv, http.MethodPost, "/admin/retrain"); rec.Code != http.StatusAccepted {
		t.Fatalf("POST /admin/retrain: %d %s", rec.Code, body)
	}
	assertFreshFirstRead(t, srv, "v01", before, readForecast(t, srv, "v01", ""), eng)
	if n := waitCounts(srv)["nothing_coming"]; n != 0 {
		t.Fatalf("%d reads waited with nothing coming", n)
	}
}

// rywCluster is a 3-shard cluster over one shared store with coverage
// wired into every shard engine, as `fleetserver -shards 3 -ingest`
// runs it. While hold is set, every shard's fetch blocks until release
// is closed.
type rywCluster struct {
	router  *Router
	ring    *cluster.Ring
	engines []*engine.Engine
	servers map[string]*Server
	hold    atomic.Bool
	release chan struct{}
}

// newRYWCluster builds the cluster over one store; with remote set, the
// router reaches each shard over HTTP instead of in process.
func newRYWCluster(t *testing.T, remote bool) *rywCluster {
	t.Helper()
	store := genStore(t, 9)
	c := &rywCluster{servers: make(map[string]*Server), release: make(chan struct{})}
	cfg := testEngineConfig()
	cfg.Seq = store.Seq
	base := func(ctx context.Context) ([]engine.Vehicle, error) {
		if c.hold.Load() {
			<-c.release
		}
		return store.Fleet(ctx)
	}
	sharded, err := cluster.NewSharded(cluster.ShardedConfig{Engine: cfg, Base: base, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sharded.RetrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	var backends []ShardBackend
	for _, sh := range sharded.Shards() {
		srv, err := NewWithOptions(sh.Engine, Options{Ingest: store, RetrainDirty: 1})
		if err != nil {
			t.Fatal(err)
		}
		c.engines = append(c.engines, sh.Engine)
		c.servers[sh.Name] = srv
		if !remote {
			backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
			continue
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		backends = append(backends, NewRemoteBackend(sh.Name, ts.URL, ts.Client()))
	}
	c.ring = sharded.Ring()
	// In process the router upserts into the shared store and runs every
	// shard's retrain check; over HTTP it partitions, so the report lands
	// through the owner's own door, as in the multi-process topology.
	opts := RouterOptions{SharedIngest: store}
	if remote {
		opts = RouterOptions{}
	}
	if c.router, err = NewRouter(c.ring, backends, opts); err != nil {
		t.Fatal(err)
	}
	return c
}

// firstReadAfterReport posts a tail-day report for id through the
// router while every shard's build is held, reads id's forecast once
// the owner shard's server holds that read, then lets the builds go and
// checks the read is the covering generation's.
func (c *rywCluster) firstReadAfterReport(t *testing.T, id string) {
	t.Helper()
	before := readForecast(t, c.router, id, "")
	c.hold.Store(true)
	if !postTail(t, c.router, id, 1) {
		t.Fatal("the report did not kick a build")
	}
	owner := c.servers[c.ring.Owner(id)]
	got := make(chan forecastRead, 1)
	go func() { got <- readForecast(t, c.router, id, "") }()
	eventually(t, "the owner shard to hold the read", func() bool { return owner.waiting.Load() == 1 })
	close(c.release)
	assertFreshFirstRead(t, c.router, id, before, <-got, c.engines...)
	if n := waitCounts(owner)["covered"]; n != 1 {
		t.Fatalf("owner shard counted %d covered waits, want 1", n)
	}
}

// TestReadYourWritesShardedRouter: through the in-process -shards 3
// router, the owner shard's build is the one a read waits for, though
// every shard builds from the one shared store.
func TestReadYourWritesShardedRouter(t *testing.T) {
	newRYWCluster(t, false).firstReadAfterReport(t, "v05")
}

// TestReadYourWritesRemoteBackend: a remote owner shard waits inside
// its own server; the router relays its answer.
func TestReadYourWritesRemoteBackend(t *testing.T) {
	newRYWCluster(t, true).firstReadAfterReport(t, "v07")
}

// TestReadYourWritesCleanVehicleNeverWaits: while a build for v02 is
// held open, reads of a clean vehicle and fleet-wide reads answer at
// once from the live generation, and nothing counts as a wait.
func TestReadYourWritesCleanVehicleNeverWaits(t *testing.T) {
	h := newHeldSource()
	srv, eng, _ := rywServer(t, 1, h.wrap)
	before := readForecast(t, srv, "v01", "")
	h.armed.Store(true)
	if !postTail(t, srv, "v02", 1) {
		t.Fatal("the report did not kick a build")
	}
	<-h.entered
	if got := readForecast(t, srv, "v01", ""); got != before {
		t.Fatalf("clean vehicle during a build:\n%+v\nwant the live generation's\n%+v", got, before)
	}
	for path, want := range map[string]int{"/fleet/forecast": 200, "/vehicles": 200, "/fleet/plan": 200, "/vehicles/v99/forecast": 404} {
		if rec, _ := get(t, srv, path); rec.Code != want {
			t.Fatalf("GET %s during a build: %d, want %d", path, rec.Code, want)
		}
	}
	close(h.release)
	idle(t, eng)
	for outcome, n := range waitCounts(srv) {
		if n != 0 {
			t.Errorf("%d waits with outcome %s; clean and fleet-wide reads never wait", n, outcome)
		}
	}
	if n := srv.waitSeconds.Count(); n != 0 {
		t.Errorf("wait histogram counted %d reads", n)
	}
}

// TestReadYourWritesNoSnapshotAnswersAtOnce: before the first
// generation a forecast read is an immediate 503, build coming or not.
func TestReadYourWritesNoSnapshotAnswersAtOnce(t *testing.T) {
	store := seededStore(t)
	h := newHeldSource()
	cfg := testEngineConfig()
	cfg.Source, cfg.Seq = h.wrap(store.Fleet), store.Seq
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(eng, Options{Ingest: store, RetrainDirty: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.armed.Store(true)
	if !eng.BeginRetrainFromSource(context.Background(), false) {
		t.Fatal("the first build did not start")
	}
	<-h.entered
	if got := readForecast(t, srv, "v01", ""); got.code != http.StatusServiceUnavailable {
		t.Fatalf("read before the first generation: %d, want 503", got.code)
	}
	close(h.release)
	idle(t, eng)
}

// TestReadYourWritesFailedBuildReleasesWaiters: a read waiting for a
// build that fails is answered with the live generation as soon as the
// failure lands.
func TestReadYourWritesFailedBuildReleasesWaiters(t *testing.T) {
	h := newHeldSource()
	srv, eng, _ := rywServer(t, 1, h.wrap)
	srv.waitCap = time.Minute // only the failure may end the wait
	before := readForecast(t, srv, "v02", "")
	h.armed.Store(true)
	h.fail.Store(true)
	if !postTail(t, srv, "v02", 1) {
		t.Fatal("the report did not kick a build")
	}
	<-h.entered
	got := make(chan forecastRead, 1)
	go func() { got <- readForecast(t, srv, "v02", "") }()
	eventually(t, "the read to wait", func() bool { return srv.waiting.Load() == 1 })
	close(h.release)
	if r := <-got; r != before {
		t.Fatalf("read released by a failed build:\n%+v\nwant the live generation's\n%+v", r, before)
	}
	idle(t, eng)
	if st := eng.Status(); st.LastError == "" {
		t.Fatal("the held build did not fail")
	}
	if n := waitCounts(srv)["nothing_coming"]; n != 1 {
		t.Fatalf("nothing_coming waits %d, want 1 (%v)", n, waitCounts(srv))
	}
}

// TestReadYourWritesCapAndCancel: a build held open makes a read return
// stale at the cap, or when its request context ends first.
func TestReadYourWritesCapAndCancel(t *testing.T) {
	h := newHeldSource()
	srv, eng, _ := rywServer(t, 1, h.wrap)
	before := readForecast(t, srv, "v02", "")
	h.armed.Store(true)
	if !postTail(t, srv, "v02", 1) {
		t.Fatal("the report did not kick a build")
	}
	<-h.entered

	srv.waitCap = 30 * time.Millisecond
	t0 := time.Now()
	if got := readForecast(t, srv, "v02", ""); got != before {
		t.Fatalf("capped read:\n%+v\nwant the live generation's\n%+v", got, before)
	}
	if d := time.Since(t0); d < srv.waitCap {
		t.Fatalf("capped read returned after %v, before the %v cap", d, srv.waitCap)
	}

	srv.waitCap = time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if status, etag, _ := srv.ForecastResponse(ctx, "v02"); status != http.StatusOK || etag != before.etag {
		t.Fatalf("cancelled read: %d %s, want 200 %s", status, etag, before.etag)
	}
	if c := waitCounts(srv); c["capped"] != 1 || c["cancelled"] != 1 || c["covered"] != 0 {
		t.Fatalf("wait outcomes %v, want one capped and one cancelled", c)
	}
	close(h.release)
	idle(t, eng)
	if got := readForecast(t, srv, "v02", ""); got == before {
		t.Fatal("the released build was not published")
	}
}

// TestReadYourWritesUnchangedBuildReleasesWaiters: a kicked build that
// comes out equal to the live snapshot publishes nothing but still
// covers the report, so the read it held is answered with the live
// generation as covered.
func TestReadYourWritesUnchangedBuildReleasesWaiters(t *testing.T) {
	h := newHeldSource()
	var frozen []engine.Vehicle
	freeze := func(src engine.Source) engine.Source {
		held := h.wrap(func(ctx context.Context) ([]engine.Vehicle, error) { return frozen, nil })
		return func(ctx context.Context) ([]engine.Vehicle, error) {
			if frozen == nil { // the initial train
				fleet, err := src(ctx)
				frozen = fleet
				return fleet, err
			}
			return held(ctx)
		}
	}
	srv, eng, _ := rywServer(t, 1, freeze)
	srv.waitCap = time.Minute // only the landing may end the wait
	before := readForecast(t, srv, "v02", "")
	h.armed.Store(true)
	if !postTail(t, srv, "v02", 1) {
		t.Fatal("the report did not kick a build")
	}
	<-h.entered
	got := make(chan forecastRead, 1)
	go func() { got <- readForecast(t, srv, "v02", "") }()
	eventually(t, "the read to wait", func() bool { return srv.waiting.Load() == 1 })
	close(h.release)
	if r := <-got; r != before {
		t.Fatalf("read released by an unchanged build:\n%+v\nwant the live generation's\n%+v", r, before)
	}
	idle(t, eng)
	if g := eng.Status().Generation; g != 1 {
		t.Fatalf("generation %d, want the unchanged build unpublished at 1", g)
	}
	if c := waitCounts(srv); c["covered"] != 1 {
		t.Fatalf("wait outcomes %v, want one covered", c)
	}
}

// TestReadYourWritesConditionalGetStaleTag: a conditional GET carrying
// the pre-report tag that waits for the covering build gets 200 with
// the new entity, not a 304.
func TestReadYourWritesConditionalGetStaleTag(t *testing.T) {
	h := newHeldSource()
	srv, eng, _ := rywServer(t, 1, h.wrap)
	before := readForecast(t, srv, "v03", "")
	if got := readForecast(t, srv, "v03", before.etag); got.code != http.StatusNotModified {
		t.Fatalf("conditional read with the live tag: %d, want 304", got.code)
	}
	h.armed.Store(true)
	if !postTail(t, srv, "v03", 1) {
		t.Fatal("the report did not kick a build")
	}
	<-h.entered
	got := make(chan forecastRead, 1)
	go func() { got <- readForecast(t, srv, "v03", before.etag) }()
	eventually(t, "the read to wait", func() bool { return srv.waiting.Load() == 1 })
	close(h.release)
	assertFreshFirstRead(t, srv, "v03", before, <-got, eng)
}
