package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// singleServerBytes returns the unsharded reference bytes for a path —
// the byte-identity oracle every merged router response is held to.
func singleServerBytes(t testing.TB, fx *clusterFixture, path string) []byte {
	t.Helper()
	srv, err := New(fx.single)
	if err != nil {
		t.Fatal(err)
	}
	rec, body := get(t, srv, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("single server %s = %d: %s", path, rec.Code, body)
	}
	return body
}

// TestRouterMergedCache pins the vector-keyed merge cache: cold and
// warm merged reads are byte-identical to the unsharded server, a warm
// read validates via per-shard tag matches instead of re-merging, and
// the merged ETag changes iff some shard's generation changes.
func TestRouterMergedCache(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})
	want := singleServerBytes(t, fx, "/fleet/forecast")

	rec, cold := routerGet(t, fx.router, "/fleet/forecast")
	if rec.Code != http.StatusOK || string(cold) != string(want) {
		t.Fatalf("cold merged read = %d, diverges from unsharded bytes", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"m`) {
		t.Fatalf("merged ETag %q, want vector-hash form", etag)
	}
	if gen := rec.Header().Get(HeaderFleetGeneration); `"`+gen+`"` != etag {
		t.Fatalf("generation echo %q does not match ETag %q", gen, etag)
	}

	rec, warm := routerGet(t, fx.router, "/fleet/forecast")
	if string(warm) != string(cold) || rec.Header().Get("ETag") != etag {
		t.Fatal("warm merged read diverges from the cold one")
	}
	if h, m := fx.router.merged.hits.Load(), fx.router.merged.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("merge cache hits=%d misses=%d, want 1/1", h, m)
	}
	if n := fx.router.shardNotModified.Load(); n != 3 {
		t.Fatalf("warm read validated %d shards as unchanged, want 3", n)
	}

	// /vehicles has its own independent cache.
	wantVehicles := singleServerBytes(t, fx, "/vehicles")
	for pass := 0; pass < 2; pass++ {
		rec, body := routerGet(t, fx.router, "/vehicles")
		if rec.Code != http.StatusOK || string(body) != string(wantVehicles) {
			t.Fatalf("pass %d: merged /vehicles diverges from unsharded bytes", pass)
		}
	}
	if h, m := fx.router.merged.hits.Load(), fx.router.merged.misses.Load(); h != 2 || m != 2 {
		t.Fatalf("after /vehicles: hits=%d misses=%d, want 2/2", h, m)
	}

	// One shard retraining moves its generation and with it the merged
	// tag; the other shards still validate as unchanged.
	if _, err := fx.sharded.Shards()[0].Engine.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, body := routerGet(t, fx.router, "/fleet/forecast")
	if rec.Code != http.StatusOK || string(body) != string(want) {
		t.Fatal("post-retrain merged read diverges (same store, same fleet)")
	}
	if got := rec.Header().Get("ETag"); got == etag {
		t.Fatal("merged ETag did not change with a shard generation")
	}
	if m := fx.router.merged.misses.Load(); m != 3 {
		t.Fatalf("merge cache misses = %d, want 3 (the moved vector re-merges)", m)
	}
	if n := fx.router.shardNotModified.Load(); n != 8 {
		t.Fatalf("shardNotModified = %d, want 8 (two warm passes + 2 unchanged shards)", n)
	}
}

// TestRouterConditionalGET: the router speaks the same If-None-Match
// protocol as a single server, against its merged tag. The fleet-wide
// routes, the plan included, echo the merged generation; the
// per-vehicle route echoes its owner shard's.
func TestRouterConditionalGET(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	rec, _ := routerGet(t, fx.router, "/fleet/forecast")
	merged := strings.Trim(rec.Header().Get("ETag"), `"`)
	if !strings.HasPrefix(merged, "m") {
		t.Fatalf("merged generation %q, want the m<hash> form", merged)
	}
	owner := fx.sharded.Ring().Owner("v02")
	var ownerGen string
	for _, sh := range fx.sharded.Shards() {
		if sh.Name == owner {
			ownerGen = sh.Engine.Snapshot().GenerationID()
		}
	}
	checkConditionalTable(t, fx.router, &fx.router.notModified, []condRoute{
		{"/vehicles/v02/forecast", ownerGen},
		{"/vehicles", merged},
		{"/fleet/forecast", merged},
		{"/fleet/plan", merged},
		{"/fleet/plan?capacity=3&horizon=400", merged},
	})
	checkUncacheable(t, fx.router, "/vehicles/ghost/forecast", http.StatusNotFound)
	checkUncacheable(t, fx.router, "/fleet/plan?capacity=bogus", http.StatusBadRequest)

	// Over remote backends the owner route forwards If-None-Match and
	// relays the shard's 304, which the router counts as its own.
	var remote []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := New(sh.Engine)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		remote = append(remote, NewRemoteBackend(sh.Name, ts.URL, nil))
	}
	relay, err := NewRouter(fx.sharded.Ring(), remote, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkConditionalTable(t, relay, &relay.notModified, []condRoute{
		{"/vehicles/v02/forecast", ownerGen},
		{"/vehicles", merged},
		{"/fleet/forecast", merged},
		{"/fleet/plan", merged},
	})
	checkUncacheable(t, relay, "/vehicles/ghost/forecast", http.StatusNotFound)

	ring, err := cluster.NewRingOf(0, "c0", "c1")
	if err != nil {
		t.Fatal(err)
	}
	var backends []ShardBackend
	for _, name := range ring.Shards() {
		eng, err := engine.New(testEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(eng)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: name, Handler: srv})
	}
	unready, err := NewRouter(ring, backends, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/vehicles/v02/forecast", "/vehicles", "/fleet/forecast", "/fleet/plan"} {
		checkUncacheable(t, unready, path, http.StatusServiceUnavailable)
	}

	fx = buildCluster(t, 6, 3, 0, RouterOptions{})
	rec, _ = routerGet(t, fx.router, "/fleet/forecast")
	etag := rec.Header().Get("ETag")

	req := httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	fx.router.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("conditional merged read = %d with %d body bytes, want empty 304", rec.Code, rec.Body.Len())
	}
	if n := fx.router.notModified.Load(); n != 1 {
		t.Fatalf("router notModified = %d, want 1", n)
	}

	// The per-vehicle fast path relays the owner's tag and 304s too.
	rec, _ = routerGet(t, fx.router, "/vehicles/v01/forecast")
	vtag := rec.Header().Get("ETag")
	if vtag == "" {
		t.Fatal("owner fast path lost the shard ETag")
	}
	rec2, _ := condGet(t, fx.router, "/vehicles/v01/forecast", vtag)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("owner-route conditional = %d, want 304", rec2.Code)
	}

	// A retrain anywhere invalidates the merged tag.
	if err := fx.sharded.RetrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec2, body := condGet(t, fx.router, "/fleet/forecast", etag)
	if rec2.Code != http.StatusOK || len(body) == 0 {
		t.Fatalf("post-retrain conditional = %d, want full 200", rec2.Code)
	}
	if rec2.Header().Get("ETag") == etag {
		t.Fatal("post-retrain merged response reuses the old tag")
	}
}

// garbleGeneration wraps a shard so its X-Fleet-Generation header no
// longer matches its ETag — the signature of a torn response read off
// a shard mid-snapshot-swap. Being a plain http.Handler (not a
// *Server), the wrapper also forces the router through its HTTP fetch
// path.
func garbleGeneration(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set(HeaderFleetGeneration, "torn")
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// TestRouterTornGatherNeverCached: a gather whose shard tag/generation
// pair is inconsistent is served correctly but never becomes a cache
// entry — the satellite requirement that a torn merge cannot poison
// later reads.
func TestRouterTornGatherNeverCached(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	want := singleServerBytes(t, fx, "/fleet/forecast")

	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := New(sh.Engine)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: garbleGeneration(srv)})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 3; pass++ {
		rec, body := routerGet(t, router, "/fleet/forecast")
		if rec.Code != http.StatusOK || string(body) != string(want) {
			t.Fatalf("pass %d: torn gather = %d, body diverges from unsharded bytes", pass, rec.Code)
		}
	}
	if torn := router.mergeTorn.Load(); torn != 3 {
		t.Fatalf("mergeTorn = %d, want 3", torn)
	}
	if h, m := router.merged.hits.Load(), router.merged.misses.Load(); h != 0 || m != 3 {
		t.Fatalf("torn gathers hit the cache: hits=%d misses=%d, want 0/3", h, m)
	}
}

// TestRouterRemoteConditionalScatter: against real HTTP backends the
// router's re-validation is a conditional GET per shard — warm reads
// ride shard 304s, reuse cached fragments, and stay byte-identical.
func TestRouterRemoteConditionalScatter(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	want := singleServerBytes(t, fx, "/fleet/forecast")

	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := New(sh.Engine)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		backends = append(backends, NewRemoteBackend(sh.Name, ts.URL, nil))
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	rec, cold := routerGet(t, router, "/fleet/forecast")
	if rec.Code != http.StatusOK || string(cold) != string(want) {
		t.Fatalf("cold remote gather = %d, diverges from unsharded bytes", rec.Code)
	}
	rec, warm := routerGet(t, router, "/fleet/forecast")
	if rec.Code != http.StatusOK || string(warm) != string(cold) {
		t.Fatal("warm remote gather diverges")
	}
	if n := router.shardNotModified.Load(); n != 3 {
		t.Fatalf("remote warm read got %d shard 304s, want 3", n)
	}
	if h := router.merged.hits.Load(); h != 1 {
		t.Fatalf("remote warm read mergeHits = %d, want 1", h)
	}
}

// TestRouterPlanCache: the router's plan is byte-identical to the
// unsharded server's, and repeat same-day same-parameter queries serve
// cached bytes under the extended plan tag.
func TestRouterPlanCache(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	const path = "/fleet/plan?capacity=3&horizon=2000&maxlead=2000"
	want := singleServerBytes(t, fx, path)

	rec, first := routerGet(t, fx.router, path)
	if rec.Code != http.StatusOK || string(first) != string(want) {
		t.Fatalf("router plan = %d, diverges from unsharded plan", rec.Code)
	}
	ptag := rec.Header().Get("ETag")
	rec, second := routerGet(t, fx.router, path)
	if string(second) != string(first) || rec.Header().Get("ETag") != ptag {
		t.Fatal("cached router plan diverges")
	}
	if h, m := fx.router.planBodies.hits.Load(), fx.router.planBodies.misses.Load(); h != 1 || m != 1 {
		t.Fatalf("router plan cache hits=%d misses=%d, want 1/1", h, m)
	}
	rec2, body := condGet(t, fx.router, path, ptag)
	if rec2.Code != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional plan = %d, want empty 304", rec2.Code)
	}
}

// TestRouterPlanDecodeReuse: plan parameter variants at one merged tag
// share a single decode of the merged forecast payload — only the
// scheduling and marshaling re-run per parameter set.
func TestRouterPlanDecodeReuse(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	pathA := "/fleet/plan?capacity=3&horizon=2000&maxlead=2000"
	pathB := "/fleet/plan?capacity=1&horizon=2000&maxlead=2000"
	wantA := singleServerBytes(t, fx, pathA)
	wantB := singleServerBytes(t, fx, pathB)

	rec, bodyA := routerGet(t, fx.router, pathA)
	if rec.Code != http.StatusOK || string(bodyA) != string(wantA) {
		t.Fatalf("plan A = %d, diverges from unsharded plan", rec.Code)
	}
	rec, bodyB := routerGet(t, fx.router, pathB)
	if rec.Code != http.StatusOK || string(bodyB) != string(wantB) {
		t.Fatalf("plan B = %d, diverges from unsharded plan", rec.Code)
	}
	if d, h := fx.router.planInputs.misses.Load(), fx.router.planInputs.hits.Load(); d != 1 || h != 1 {
		t.Fatalf("plan decode misses=%d hits=%d, want 1/1 (variant B must reuse A's decode)", d, h)
	}
	if m := fx.router.planBodies.misses.Load(); m != 2 {
		t.Fatalf("planCacheMisses = %d, want 2 (distinct parameter keys)", m)
	}

	// A retrain moves the merged tag: the decode cache is keyed by it,
	// so the next plan decodes afresh.
	if err := fx.sharded.RetrainAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, bodyA = routerGet(t, fx.router, pathA)
	if rec.Code != http.StatusOK || string(bodyA) != string(wantA) {
		t.Fatal("post-retrain plan diverges")
	}
	if d := fx.router.planInputs.misses.Load(); d != 2 {
		t.Fatalf("post-retrain planDecodeMisses = %d, want 2", d)
	}
}

// TestRouterPlanTornNeverCached: a plan built from a torn gather is
// served correctly but neither its body nor its decoded requests enter
// any cache — the never-cache rule follows derived artifacts.
func TestRouterPlanTornNeverCached(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	const path = "/fleet/plan?capacity=3&horizon=2000&maxlead=2000"
	want := singleServerBytes(t, fx, path)

	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := New(sh.Engine)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: garbleGeneration(srv)})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 2; pass++ {
		rec, body := routerGet(t, router, path)
		if rec.Code != http.StatusOK || string(body) != string(want) {
			t.Fatalf("pass %d: torn plan = %d, body diverges from unsharded plan", pass, rec.Code)
		}
	}
	if torn := router.mergeTorn.Load(); torn != 2 {
		t.Fatalf("mergeTorn = %d, want 2 (each torn plan is a torn gather)", torn)
	}
	if h, m := router.planBodies.hits.Load(), router.planBodies.misses.Load(); h != 0 || m != 0 {
		t.Fatalf("torn plans touched the plan cache: hits=%d misses=%d", h, m)
	}
	if d := router.planInputs.hits.Load(); d != 0 {
		t.Fatalf("torn plans reused a decode: hits=%d", d)
	}
	if router.planBodies.cur.Load() != nil || router.planInputs.cur.Load() != nil {
		t.Fatal("torn plan left cache residue")
	}
}

// TestRouterReadHammer races conditional fleet reads against
// continuous full-cluster retrains (run with -race): every 200 must
// byte-match the unsharded reference (the store never changes, so the
// fleet's bytes cannot either), and a torn or mid-swap gather must
// never poison the cache for later readers.
func TestRouterReadHammer(t *testing.T) {
	fx := buildCluster(t, 9, 3, 0, RouterOptions{})
	want := string(singleServerBytes(t, fx, "/fleet/forecast"))

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
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			etag := ""
			for i := 0; i < 40; i++ {
				rec, body := condGet(t, fx.router, "/fleet/forecast", etag)
				switch rec.Code {
				case http.StatusOK:
					if string(body) != want {
						t.Error("merged read diverged from reference mid-retrain")
						return
					}
					etag = rec.Header().Get("ETag")
				case http.StatusNotModified:
					if len(body) != 0 {
						t.Error("304 carried a body")
						return
					}
				default:
					t.Errorf("fleet read = %d mid-retrain", rec.Code)
					return
				}
			}
		}()
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
