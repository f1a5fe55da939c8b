// Router: the cluster front door. One process owns the public
// endpoints and fans them out to N engine shards, each an unchanged
// single-fleet server over its partition of the vehicles (see
// internal/cluster for the partitioning):
//
//   - per-vehicle routes (GET /vehicles/{id}/forecast) take the
//     single-owner fast path: the consistent-hash ring names the one
//     shard that owns the vehicle and the response streams through
//     verbatim (plus an X-Fleet-Shard header naming the owner);
//   - fleet-wide routes (GET /vehicles, /fleet/forecast, /fleet/plan,
//     /admin/status, /admin/ingest, POST /admin/retrain) scatter to
//     every shard and merge deterministically — forecasts and vehicle
//     rows sort by vehicle ID, so the merged payload is byte-identical
//     to a single unsharded server's. Data routes are cached keyed by
//     the vector of shard generations (each shard echoes its
//     generation in X-Fleet-Generation): an unchanged vector serves
//     cached merged bytes, a moved vector re-gathers and merges raw
//     per-vehicle JSON fragments without decode/re-encode, and clients
//     get strong ETags with If-None-Match honored (routecache.go);
//   - POST /telemetry is *partitioned*, not broadcast: after the
//     router-level guard (rate limit, bearer auth) admits a batch, each
//     vehicle's reports go only to the shard the ring names as its
//     owner, so raw telemetry storage scales ~1/N per shard. Shards
//     keep their cold-start donor pools fleet-wide through the
//     donor-series exchange instead (each shard serves its local old
//     vehicles on GET /internal/donors and pulls its peers' at retrain;
//     see cluster.DonorExchangeSource). In the in-process topology,
//     where every shard wraps one shared store, the router upserts the
//     batch exactly once and runs each shard's retrain check in place
//     (RouterOptions.SharedIngest).
//
// Every scatter carries a per-shard deadline: a shard that is down or
// wedged yields 503 naming the failing shards instead of hanging the
// whole fan-out.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wal"
)

// jsonDecode strictly decodes one shard's JSON payload.
func jsonDecode(data []byte, v any) error {
	return json.Unmarshal(data, v)
}

// ShardBackend is one shard as the router sees it: a name on the ring
// plus an http.Handler serving that shard's endpoints. In-process
// deployments pass the shard's *Server directly; multi-process
// deployments pass NewRemoteBackend.
type ShardBackend struct {
	Name    string
	Handler http.Handler
}

// NewRemoteBackend returns a backend that forwards each request to a
// peer fleetserver at baseURL (e.g. "http://shard0:8080") and relays
// the response. The outbound request inherits the inbound context, so
// the router's per-shard deadline bounds the network call.
func NewRemoteBackend(name, baseURL string, client *http.Client) ShardBackend {
	if client == nil {
		client = http.DefaultClient
	}
	base := strings.TrimSuffix(baseURL, "/")
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		url := base + r.URL.Path
		if q := r.URL.RawQuery; q != "" {
			url += "?" + q
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, url, r.Body)
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("serve: shard %s: %v", name, err))
			return
		}
		req.Header = r.Header.Clone()
		resp, err := client.Do(req)
		if err != nil {
			writeError(w, http.StatusBadGateway, fmt.Sprintf("serve: shard %s: %v", name, err))
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	})
	return ShardBackend{Name: name, Handler: h}
}

// RouterOptions configures the fan-out.
type RouterOptions struct {
	// ShardTimeout bounds each per-shard call of a scatter-gather (and
	// the owner call of a fast-path route); 0 defaults to 15s. Retrain
	// fan-outs with ?wait=1 are exempt — a fleet-wide rebuild may
	// legitimately take longer.
	ShardTimeout time.Duration
	// Telemetry guards POST /telemetry at the router (shards behind it
	// stay trusted-internal).
	Telemetry GuardOptions
	// DisableIngest omits POST /telemetry and GET /admin/ingest from
	// the router. Set it when the shards run without an ingest store
	// (CSV mode), so those routes 404 cleanly at the router instead of
	// relaying per-shard 404s.
	DisableIngest bool
	// SharedIngest, set in the in-process topology where every shard
	// backend is a *Server over the same *ingest.Store, lets the router
	// upsert a telemetry batch exactly once and then run each shard's
	// dirty-retrain check directly. NewRouter hands each such shard its
	// ring ownership, so the check counts only the vehicles the shard
	// reads: a report moves the shards whose builds it can change. Leave
	// nil in the multi-process topology, where the router instead routes
	// each vehicle's reports to its ring owner's store only.
	SharedIngest *ingest.Store
	// Logger receives one structured line per handled request, carrying
	// the trace ID the router minted (or adopted from X-Fleet-Trace).
	// nil falls back to slog.Default(). Probe routes (/healthz, /readyz,
	// /metrics) log at Debug; data and admin routes at Info.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ on the router mux.
	Pprof bool
}

// Router fans the public endpoints out over the shard backends.
type Router struct {
	ring      *cluster.Ring
	backends  []ShardBackend
	byName    map[string]*ShardBackend
	mux       *http.ServeMux
	timeout   time.Duration
	telemetry *guard
	ingest    *ingest.Store // shared store fast path; nil = partition by owner
	log       *slog.Logger
	// kickers are the shard servers over the shared store, each told
	// which vehicles it owns; an acknowledged batch runs their retrain
	// checks in place.
	kickers []*Server
	// routeHist shares the fleet_http_request_seconds family with shard
	// servers; on a router scrape the shard copies arrive relabeled with
	// shard="...", so the router's own unlabeled-by-shard series stays
	// distinguishable.
	routeHist *obs.Family
	// shardCall times each per-shard call of a scatter or owner-route
	// relay, keyed by shard name; shardCallErrs counts the calls that
	// failed (transport error or per-shard deadline).
	shardCall     *obs.Family
	shardCallErrs *obs.Family

	// merge keeps each fleet route's per-shard fragments for the
	// conditional re-gather (routecache.go). The read caches
	// (readcache.go): merged holds the merged fleet bodies keyed by the
	// shard generation vector and the route; planInputs the scheduling
	// requests decoded from a merged forecast body, keyed by (merged
	// tag, day) and shared by every parameter variant; planBodies the
	// plan bodies keyed by (merged tag, day and parameters). A torn
	// gather yields the empty generation, so nothing derived from it is
	// stored.
	merge      [numFleetRoutes]mergeCache
	merged     *genCache[[]byte]
	planInputs *genCache[planInput]
	planBodies *genCache[[]byte]

	// Read-path counters, exported on /metrics: gathers left uncached
	// because a shard's ETag and generation echo disagreed (torn
	// mid-retrain), shard fetches validated unchanged (HTTP 304 or
	// in-process tag match), and client conditional GETs answered 304.
	mergeTorn        atomic.Uint64
	shardNotModified atomic.Uint64
	notModified      atomic.Uint64
}

// planInput is what a plan is scheduled from: the requests decoded
// from a merged forecast body and its per-vehicle forecast errors.
// Shared read-only across plan parameter variants.
type planInput struct {
	reqs []sched.Request
	errs map[string]string
}

// NewRouter builds the cluster front door. Every ring shard must have
// a backend and vice versa.
func NewRouter(ring *cluster.Ring, backends []ShardBackend, opts RouterOptions) (*Router, error) {
	if ring == nil {
		return nil, errors.New("serve: nil ring")
	}
	if len(backends) == 0 {
		return nil, errors.New("serve: no shard backends")
	}
	timeout := opts.ShardTimeout
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	rt := &Router{
		ring:      ring,
		backends:  backends,
		byName:    make(map[string]*ShardBackend, len(backends)),
		mux:       http.NewServeMux(),
		timeout:   timeout,
		telemetry: newGuard(opts.Telemetry),
		ingest:    opts.SharedIngest,
		log:       logger,
		routeHist: newRouteFamily(),
		shardCall: obs.NewHistogramFamily("fleet_shard_call_seconds",
			"Per-shard call latency of scatter-gathers and owner-route relays.",
			obs.LatencyBuckets, "shard"),
		shardCallErrs: obs.NewCounterFamily("fleet_shard_call_errors_total",
			"Per-shard calls that failed (transport error or deadline).", "shard"),
		merged:     newGenCache[[]byte]("fleet_router_merge_cache", "Merged fleet-wide responses", 0),
		planInputs: newGenCache[planInput]("fleet_router_plan_decode", "Plan builds' scheduling requests", 0),
		planBodies: newGenCache[[]byte]("fleet_router_plan_cache", "GET /fleet/plan responses at the router", maxPlanEntries),
	}
	for i := range backends {
		b := &backends[i]
		if b.Handler == nil {
			return nil, fmt.Errorf("serve: shard %q has no handler", b.Name)
		}
		if _, dup := rt.byName[b.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate shard backend %q", b.Name)
		}
		rt.byName[b.Name] = b
	}
	shards := ring.Shards()
	if len(shards) != len(backends) {
		return nil, fmt.Errorf("serve: ring has %d shards but %d backends", len(shards), len(backends))
	}
	for _, s := range shards {
		if _, ok := rt.byName[s]; !ok {
			return nil, fmt.Errorf("serve: ring shard %q has no backend", s)
		}
	}
	if rt.ingest != nil {
		for _, b := range backends {
			srv, ok := b.Handler.(*Server)
			if !ok || srv.ingest != rt.ingest {
				return nil, fmt.Errorf("serve: shared ingest needs shard %q to be a server over that store", b.Name)
			}
			name := b.Name
			srv.kickMu.Lock()
			srv.owns = func(id string) bool { return ring.Owner(id) == name }
			srv.kickMu.Unlock()
			rt.kickers = append(rt.kickers, srv)
		}
	}

	rt.route("GET /healthz", probeRoute, rt.handleHealth)
	rt.route("GET /readyz", probeRoute, rt.handleReady)
	rt.route("GET /vehicles", dataRoute, rt.handleVehicles)
	rt.route("GET /vehicles/{id}/forecast", dataRoute, rt.handleOwnerRoute)
	rt.route("GET /fleet/forecast", dataRoute, rt.handleFleetForecast)
	rt.route("GET /fleet/plan", dataRoute, rt.handlePlan)
	rt.route("POST /admin/retrain", dataRoute, rt.handleRetrain)
	rt.route("GET /admin/status", dataRoute, rt.handleStatus)
	rt.route("GET /metrics", probeRoute, rt.handleMetrics)
	if !opts.DisableIngest {
		rt.route("POST /telemetry", dataRoute, rt.handleTelemetry)
		rt.route("GET /admin/ingest", dataRoute, rt.handleIngest)
	}
	if opts.Pprof {
		obs.RegisterPprof(rt.mux)
	}
	return rt, nil
}

// route registers one router handler behind the shared observability
// middleware: the trace ID is minted here (or adopted from an inbound
// X-Fleet-Trace) and rides the request context into every shard call,
// the route latency lands in the fleet_http_request_seconds histogram,
// and one structured line logs the outcome.
func (rt *Router) route(pattern string, probe bool, h http.HandlerFunc) {
	hist := rt.routeHist.With(pattern)
	level := slog.LevelInfo
	if probe {
		level = slog.LevelDebug
	}
	rt.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		r, trace := obs.EnsureTrace(w, r)
		t0 := time.Now()
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(&sw, r)
		dur := time.Since(t0)
		hist.Observe(dur.Seconds())
		rt.log.LogAttrs(r.Context(), level, "http request",
			slog.String("trace", trace),
			slog.String("route", pattern),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("seconds", dur.Seconds()))
	})
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// shardResponse is one shard's captured reply.
type shardResponse struct {
	shard  string
	status int
	header http.Header
	body   []byte
	err    error
}

// memWriter is the in-memory http.ResponseWriter the router hands to
// in-process shard handlers.
type memWriter struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newMemWriter() *memWriter           { return &memWriter{status: http.StatusOK, header: make(http.Header)} }
func (m *memWriter) Header() http.Header { return m.header }
func (m *memWriter) WriteHeader(code int) {
	m.status = code
}
func (m *memWriter) Write(p []byte) (int, error) { return m.body.Write(p) }

// call invokes one shard with a deadline. The handler runs in its own
// goroutine; on timeout the call abandons it (the goroutine finishes
// against its private writer) and reports the error, so one wedged
// shard cannot hang a scatter-gather. The request's trace ID travels to
// the shard as the X-Fleet-Trace header, so the shard's request log
// line carries the same trace as the router's, and the call lands in
// the per-shard latency histogram (errors in the per-shard counter).
func (rt *Router) call(ctx context.Context, b *ShardBackend, method, target string, body []byte, hdr http.Header, timeout time.Duration) shardResponse {
	t0 := time.Now()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rdr)
	if err != nil {
		rt.shardCallErrs.CounterWith(b.Name).Inc()
		return shardResponse{shard: b.Name, err: err}
	}
	if hdr != nil {
		req.Header = hdr.Clone()
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	mem := newMemWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		b.Handler.ServeHTTP(mem, req)
	}()
	select {
	case <-done:
		rt.shardCall.With(b.Name).ObserveSince(t0)
		return shardResponse{shard: b.Name, status: mem.status, header: mem.header, body: mem.body.Bytes()}
	case <-ctx.Done():
		rt.shardCall.With(b.Name).ObserveSince(t0)
		rt.shardCallErrs.CounterWith(b.Name).Inc()
		return shardResponse{shard: b.Name, err: fmt.Errorf("shard %s: %w", b.Name, ctx.Err())}
	}
}

// scatter calls every shard concurrently and returns the responses in
// backend order.
func (rt *Router) scatter(ctx context.Context, method, target string, body []byte, hdr http.Header, timeout time.Duration) []shardResponse {
	out := make([]shardResponse, len(rt.backends))
	var wg sync.WaitGroup
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = rt.call(ctx, &rt.backends[i], method, target, body, hdr, timeout)
		}(i)
	}
	wg.Wait()
	return out
}

// gatherJSON scatters a GET and decodes every shard's 200 response
// into fresh values of type T. Any transport error or non-200 fails
// the gather with the offending shards listed.
func gatherJSON[T any](rt *Router, ctx context.Context, target string) (map[string]T, *fanoutError) {
	resps := rt.scatter(ctx, http.MethodGet, target, nil, nil, rt.timeout)
	out := make(map[string]T, len(resps))
	var fail fanoutError
	for _, resp := range resps {
		if resp.err != nil {
			fail.add(resp.shard, resp.err.Error())
			continue
		}
		if resp.status != http.StatusOK {
			fail.add(resp.shard, fmt.Sprintf("status %d: %s", resp.status, strings.TrimSpace(string(resp.body))))
			continue
		}
		var v T
		if err := jsonDecode(resp.body, &v); err != nil {
			fail.add(resp.shard, err.Error())
			continue
		}
		out[resp.shard] = v
	}
	if len(fail.Shards) > 0 {
		return nil, &fail
	}
	return out, nil
}

// fanoutError is the 503 payload naming the shards a scatter lost.
type fanoutError struct {
	Error string `json:"error"`
	// Shards maps each failing shard to why.
	Shards map[string]string `json:"shards"`
}

func (f *fanoutError) add(shard, msg string) {
	if f.Shards == nil {
		f.Shards = make(map[string]string)
	}
	f.Shards[shard] = msg
}

func (f *fanoutError) write(w http.ResponseWriter) {
	f.Error = "shard fan-out failed"
	writeJSON(w, http.StatusServiceUnavailable, f)
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if _, fail := gatherJSON[map[string]string](rt, r.Context(), "/healthz"); fail != nil {
		fail.write(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// RouterReadyJSON is the router's GET /readyz payload.
type RouterReadyJSON struct {
	Ready bool `json:"ready"`
	// Shards maps each shard to its readiness.
	Shards map[string]ReadyJSON `json:"shards"`
	// Unready lists the shards without a live snapshot, sorted.
	Unready []string `json:"unready,omitempty"`
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	// Readiness needs the per-shard payload even on 503, so scatter by
	// hand instead of through gatherJSON's all-200 contract.
	resps := rt.scatter(r.Context(), http.MethodGet, "/readyz", nil, nil, rt.timeout)
	out := RouterReadyJSON{Ready: true, Shards: make(map[string]ReadyJSON, len(resps))}
	for _, resp := range resps {
		var rj ReadyJSON
		if resp.err == nil && jsonDecode(resp.body, &rj) == nil && rj.Ready {
			out.Shards[resp.shard] = rj
			continue
		}
		out.Shards[resp.shard] = rj
		out.Ready = false
		out.Unready = append(out.Unready, resp.shard)
	}
	sort.Strings(out.Unready)
	status := http.StatusOK
	if !out.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

// forecastResponder is the in-process shortcut a backend can offer the
// single-owner route: *serve.Server implements it, so the router can
// serve a forecast straight from the shard's response cache — no
// goroutine, no memWriter, no re-marshal — while remote backends keep
// the generic relay.
type forecastResponder interface {
	ForecastResponse(ctx context.Context, id string) (status int, etag string, body []byte)
}

// handleOwnerRoute is the single-owner fast path: the ring names the
// owning shard and the response relays verbatim — ETag included, so
// conditional GETs work identically through the router (the in-process
// path answers the 304 right here; the relay path forwards the
// client's If-None-Match to the shard).
func (rt *Router) handleOwnerRoute(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := rt.ring.Owner(id)
	b := rt.byName[owner]
	if b == nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("serve: no shard owns vehicle %q", id))
		return
	}
	if fr, ok := b.Handler.(forecastResponder); ok {
		t0 := time.Now()
		status, etag, body := fr.ForecastResponse(r.Context(), id)
		rt.shardCall.With(owner).ObserveSince(t0)
		w.Header().Set("X-Fleet-Shard", owner)
		if status != http.StatusOK {
			writeBody(w, status, body)
			return
		}
		writeCached(w, r, &rt.notModified, etag[1:len(etag)-1], etag, body)
		return
	}
	target := r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	resp := rt.call(r.Context(), b, r.Method, target, nil, r.Header, rt.timeout)
	if resp.err != nil {
		(&fanoutError{Shards: map[string]string{owner: resp.err.Error()}}).write(w)
		return
	}
	for k, vs := range resp.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Fleet-Shard", owner)
	if resp.status == http.StatusNotModified {
		// The shard matched the forwarded If-None-Match: a 304 this
		// router answered, counted as the in-process path counts it.
		rt.notModified.Add(1)
	}
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

func (rt *Router) handleVehicles(w http.ResponseWriter, r *http.Request) {
	rt.handleMerged(w, r, routeVehicles)
}

// handleMerged serves one fleet-wide route's merged body, echoing the
// merged generation its tag quotes.
func (rt *Router) handleMerged(w http.ResponseWriter, r *http.Request, route fleetRoute) {
	body, etag, _, fail := rt.gatherMerged(r.Context(), route)
	if fail != nil {
		fail.write(w)
		return
	}
	writeCached(w, r, &rt.notModified, etag[1:len(etag)-1], etag, body)
}

// mergeFleetForecasts combines per-shard /fleet/forecast payloads into
// the fleet-wide one: forecasts sorted by vehicle ID (each vehicle is
// owned by exactly one shard, so the merge is a disjoint union),
// errors unioned. The serving path now merges raw fragments instead
// (routecache.go); this decoded merge remains as the independent
// oracle the byte-identity tests and the uncached-baseline benchmarks
// compare against.
func mergeFleetForecasts(parts map[string]FleetForecastJSON) FleetForecastJSON {
	out := FleetForecastJSON{Forecasts: []ForecastJSON{}}
	for _, part := range parts {
		out.Forecasts = append(out.Forecasts, part.Forecasts...)
		for id, msg := range part.Errors {
			if out.Errors == nil {
				out.Errors = make(map[string]string)
			}
			out.Errors[id] = msg
		}
	}
	sort.Slice(out.Forecasts, func(i, j int) bool { return out.Forecasts[i].VehicleID < out.Forecasts[j].VehicleID })
	return out
}

func (rt *Router) handleFleetForecast(w http.ResponseWriter, r *http.Request) {
	rt.handleMerged(w, r, routeFleetForecast)
}

// handlePlan schedules the whole fleet: forecasts gather (through the
// merged-fragment cache) from every shard, then the workshop scheduler
// runs once at the router — a plan is a fleet-global optimization
// (capacity is shared across shards), so per-shard plans cannot merge.
// This is the one fleet-wide route that must fully decode the merged
// payload; the decode runs only once per (merged tag, day) — parameter
// variants share the decoded requests — and the marshaled plan body is
// keyed by (merged tag, day, capacity, horizon, maxlead). A torn
// gather (some shard mid-retrain) is scheduled and served under the
// empty generation, so neither its decode nor its plan body is stored.
func (rt *Router) handlePlan(w http.ResponseWriter, r *http.Request) {
	body, etag, gen, fail := rt.gatherMerged(r.Context(), routeFleetForecast)
	if fail != nil {
		fail.write(w)
		return
	}
	p, err := parsePlanParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	now, day := planDay()
	key := p.cacheKey(day)
	echo := etag[1 : len(etag)-1]
	if ptag, pbody, ok := rt.planBodies.get(gen, key); ok {
		writeCached(w, r, &rt.notModified, echo, ptag, pbody)
		return
	}
	_, in, ok := rt.planInputs.get(gen, day)
	if !ok {
		var merged FleetForecastJSON
		if err := jsonDecode(body, &merged); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("serve: decoding merged forecasts: %v", err))
			return
		}
		in.reqs = make([]sched.Request, 0, len(merged.Forecasts))
		for _, f := range merged.Forecasts {
			// The due date came from a shard's own wire encoding; a parse
			// failure is impossible short of a corrupted relay, and the
			// clamp below keeps a zero date schedulable anyway.
			due, _ := time.Parse("2006-01-02", f.DueDate)
			if due.Before(now) {
				due = now
			}
			in.reqs = append(in.reqs, sched.Request{VehicleID: f.VehicleID, Due: due, Uncertainty: 2})
		}
		in.errs = merged.Errors
		_, in = rt.planInputs.put(gen, day, "", in)
	}
	// Schedule copies reqs before sorting, so the cached slice stays
	// shareable across concurrent parameter variants.
	pbody, err := buildPlanBody(in.reqs, in.errs, p, now)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ptag, pbody := rt.planBodies.put(gen, key, planETag(etag, key), pbody)
	writeCached(w, r, &rt.notModified, echo, ptag, pbody)
}

// handleTelemetry guards, then routes the batch. With a shared store
// (in-process topology) the batch is upserted exactly once at the
// router, which then runs every shard's dirty-retrain check. With
// per-shard stores (multi-process topology) the batch is *partitioned*:
// each vehicle's reports go only to the shard the ring names as its
// owner — no broadcast, so per-shard raw-telemetry storage scales ~1/N. The
// fleet-wide donor pools shards need for cold-start training move
// through the donor-series exchange instead (GET /internal/donors +
// cluster.DonorExchangeSource), not through replicated raw telemetry.
func (rt *Router) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if !rt.telemetry.admit(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxTelemetryBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: telemetry batch exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: reading telemetry batch: %v", err))
		return
	}
	if isBinaryTelemetry(r) {
		rt.routeTelemetryBinary(w, r, body)
		return
	}
	reports, err := decodeTelemetryJSON(nil, body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: decoding telemetry batch: %v", err))
		return
	}
	if len(reports) > maxTelemetryReports {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: batch of %d reports exceeds the %d-report limit", len(reports), maxTelemetryReports))
		return
	}

	// Shared-store fast path (in-process topology): upsert once, then
	// let each shard judge its retrain trigger against the store's new
	// state.
	if rt.ingest != nil {
		res, err := rt.ingest.UpsertBatch(reports)
		if err != nil {
			// Applied in memory but not durably journaled: do not ack.
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		rt.ackSharedTelemetry(w, r, res, false)
		return
	}

	// Partitioned routing: group the reports by ring owner and send
	// each group to that shard only, re-encoded so the shard decodes the
	// very reports this router did. Vehicles are disjoint across
	// groups, so the merged per-vehicle report is a plain union.
	groups := make(map[string][]byte)
	for _, rep := range reports {
		owner := rt.ring.Owner(rep.VehicleID)
		sub, ok := groups[owner]
		if ok {
			sub = append(sub, ',')
		} else {
			sub = append(sub, `{"reports":[`...)
		}
		groups[owner] = appendReportJSON(sub, rep)
	}
	owners, ok := rt.sortedOwners(w, len(groups), func(yield func(string)) {
		for name := range groups {
			yield(name)
		}
	})
	if !ok {
		return
	}
	parts := make([]ownerPart, len(owners))
	for i, name := range owners {
		parts[i] = ownerPart{shard: name, body: append(groups[name], "]}"...)}
	}
	rt.forwardTelemetryParts(w, r, parts, "application/json", false)
}

// routeTelemetryBinary routes one framed binary wire batch. The
// tentpole property: partitioning never decodes a report. Wire groups
// are contiguous byte ranges, so splitting a batch across ring owners
// copies each group's raw bytes into its owner's sub-batch and
// reframes — no decode/re-encode round trip, no per-report
// allocations at the router.
func (rt *Router) routeTelemetryBinary(w http.ResponseWriter, r *http.Request, body []byte) {
	payload, n, err := wal.ParseFrame(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: parsing telemetry frame: %v", err))
		return
	}
	if n != len(body) {
		writeError(w, http.StatusBadRequest, "serve: trailing bytes after telemetry frame")
		return
	}

	// Shared store: apply the payload once, no splitting needed.
	if rt.ingest != nil {
		res, err := rt.ingest.UpsertBinary(payload, maxTelemetryReports)
		if err != nil {
			writeBinaryIngestError(w, err)
			return
		}
		rt.ackSharedTelemetry(w, r, res, true)
		return
	}

	total, err := ingest.WalkWireGroups(payload, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if total > maxTelemetryReports {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: batch of %d reports exceeds the %d-report limit", total, maxTelemetryReports))
		return
	}
	// The first walk validated the structure, so this one cannot fail;
	// it streams raw groups into one builder per ring owner.
	builders := make(map[string]*ingest.WireGroupBuilder)
	_, _ = ingest.WalkWireGroups(payload, func(id, group, _ []byte) error {
		owner := rt.ring.OwnerBytes(id)
		b := builders[owner]
		if b == nil {
			b = new(ingest.WireGroupBuilder)
			builders[owner] = b
		}
		b.Append(group)
		return nil
	})
	owners, ok := rt.sortedOwners(w, len(builders), func(yield func(string)) {
		for name := range builders {
			yield(name)
		}
	})
	if !ok {
		return
	}
	parts := make([]ownerPart, len(owners))
	for i, name := range owners {
		parts[i] = ownerPart{shard: name, body: builders[name].Frame()}
	}
	rt.forwardTelemetryParts(w, r, parts, ingest.ContentTypeBinary, true)
}

// writeBinaryIngestError maps an UpsertBinary error onto the same
// status codes the shard-level binary door uses.
func writeBinaryIngestError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrBatchTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.Is(err, ingest.ErrWireTruncated), errors.Is(err, ingest.ErrWireTrailing), errors.Is(err, ingest.ErrWireVersion):
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		// Applied in memory but not durably journaled: do not ack.
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// sortedOwners collects n owner names from seq, verifies each has a
// backend (500 and false otherwise) and returns them sorted.
func (rt *Router) sortedOwners(w http.ResponseWriter, n int, seq func(yield func(string))) ([]string, bool) {
	owners := make([]string, 0, n)
	missing := ""
	seq(func(name string) {
		if rt.byName[name] == nil && missing == "" {
			missing = name
		}
		owners = append(owners, name)
	})
	if missing != "" {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("serve: ring owner %q has no backend", missing))
		return nil, false
	}
	sort.Strings(owners)
	return owners, true
}

// ackSharedTelemetry finishes a shared-store telemetry post: it runs
// every shard's dirty-retrain check against the store's new state —
// each kicks a build only if the batch changed a vehicle it reads — and
// acks with the router's own upsert result. compact mirrors the binary
// door's ack contract: the per-vehicle breakdown is included only when
// something was rejected.
func (rt *Router) ackSharedTelemetry(w http.ResponseWriter, r *http.Request, res ingest.BatchResult, compact bool) {
	out := TelemetryResponse{BatchResult: res}
	for _, srv := range rt.kickers {
		if srv.maybeKickRetrain(r.Context()) {
			out.RetrainStarted = true
		}
	}
	if compact && out.Rejected == 0 {
		out.Vehicles = nil
	}
	writeJSON(w, http.StatusOK, out)
}

// ownerPart is one ring owner's sub-batch of a partitioned telemetry
// post, in whichever wire format the client spoke.
type ownerPart struct {
	shard string
	body  []byte
}

// forwardTelemetryParts posts each owner's sub-batch to its shard
// concurrently and merges the acks (shards ack both wire formats in
// JSON). compact as in ackSharedTelemetry.
func (rt *Router) forwardTelemetryParts(w http.ResponseWriter, r *http.Request, parts []ownerPart, contentType string, compact bool) {
	hdr := make(http.Header)
	hdr.Set("Content-Type", contentType)
	resps := make([]shardResponse, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, b *ShardBackend, sub []byte) {
			defer wg.Done()
			resps[i] = rt.call(r.Context(), b, http.MethodPost, "/telemetry", sub, hdr, rt.timeout)
		}(i, rt.byName[p.shard], p.body)
	}
	wg.Wait()

	var fail fanoutError
	merged := TelemetryResponse{}
	merged.Vehicles = make(map[string]*ingest.VehicleResult)
	for _, resp := range resps {
		if resp.err != nil {
			fail.add(resp.shard, resp.err.Error())
			continue
		}
		// Per-report validation errors come back inside a 200; a
		// non-200 here is a malformed sub-batch (or a shard failure) and
		// relays as-is — headers included — from the first shard that
		// said so.
		if resp.status != http.StatusOK {
			for k, vs := range resp.header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(resp.status)
			_, _ = w.Write(resp.body)
			return
		}
		var tr TelemetryResponse
		if err := jsonDecode(resp.body, &tr); err != nil {
			fail.add(resp.shard, err.Error())
			continue
		}
		if tr.RetrainStarted {
			merged.RetrainStarted = true
		}
		// Per-shard stores have independent sequences; report the
		// largest so the client still sees a monotonic high-water mark.
		if tr.Seq > merged.Seq {
			merged.Seq = tr.Seq
		}
		for id, vr := range tr.Vehicles {
			merged.Vehicles[id] = vr
		}
		merged.Accepted += tr.Accepted
		merged.Rejected += tr.Rejected
		merged.Changed += tr.Changed
	}
	if len(fail.Shards) > 0 {
		fail.write(w)
		return
	}
	if compact && merged.Rejected == 0 {
		merged.Vehicles = nil
	}
	writeJSON(w, http.StatusOK, merged)
}

// RouterRetrainJSON is the fan-out POST /admin/retrain response.
type RouterRetrainJSON struct {
	// Started reports whether every shard accepted the kick.
	Started bool `json:"started"`
	// Shards maps each shard to its own retrain acknowledgement or
	// error.
	Shards map[string]any `json:"shards"`
}

func (rt *Router) handleRetrain(w http.ResponseWriter, r *http.Request) {
	target := "/admin/retrain"
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	wait, err := boolQuery(r, "wait")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout := rt.timeout
	if wait {
		timeout = 0 // a waited fleet rebuild may take arbitrarily long
	}
	resps := rt.scatter(r.Context(), http.MethodPost, target, nil, nil, timeout)
	out := RouterRetrainJSON{Started: true, Shards: make(map[string]any, len(resps))}
	status := http.StatusAccepted
	if wait {
		status = http.StatusOK
	}
	for _, resp := range resps {
		if resp.err != nil {
			out.Started = false
			out.Shards[resp.shard] = map[string]string{"error": resp.err.Error()}
			status = http.StatusServiceUnavailable
			continue
		}
		var v any
		_ = jsonDecode(resp.body, &v)
		out.Shards[resp.shard] = v
		if resp.status >= 300 {
			out.Started = false
			if resp.status == http.StatusConflict {
				status = http.StatusConflict
			} else if status < http.StatusInternalServerError {
				status = http.StatusBadGateway
			}
		}
	}
	writeJSON(w, status, out)
}

// RouterStatusJSON aggregates /admin/status across shards.
type RouterStatusJSON struct {
	// Ready reports whether every shard serves a snapshot.
	Ready bool `json:"ready"`
	// Retraining reports whether any shard is building.
	Retraining bool `json:"retraining"`
	// Vehicles totals the fleet across shards; Reused, Retrained and
	// Predicted likewise.
	Vehicles  int `json:"vehicles"`
	Reused    int `json:"reused"`
	Retrained int `json:"retrained"`
	Predicted int `json:"predicted"`
	// FailedVehicles unions the per-shard failure maps.
	FailedVehicles map[string]string `json:"failed_vehicles,omitempty"`
	// Shards holds each shard's full status.
	Shards map[string]engine.Status `json:"shards"`
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	parts, fail := gatherJSON[engine.Status](rt, r.Context(), "/admin/status")
	if fail != nil {
		fail.write(w)
		return
	}
	out := RouterStatusJSON{Ready: true, Shards: parts}
	for _, st := range parts {
		if !st.Ready {
			out.Ready = false
		}
		if st.Retraining {
			out.Retraining = true
		}
		out.Vehicles += st.Vehicles
		out.Reused += st.Reused
		out.Retrained += st.Retrained
		out.Predicted += st.Predicted
		for id, msg := range st.FailedVehicles {
			if out.FailedVehicles == nil {
				out.FailedVehicles = make(map[string]string)
			}
			out.FailedVehicles[id] = msg
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// RouterIngestJSON aggregates /admin/ingest across shards.
type RouterIngestJSON struct {
	// Shards holds each shard's ingest stats. With partitioned
	// telemetry each store holds a disjoint ~1/N slice of the fleet
	// (the per-shard Vehicles counts sum to the fleet size), and each
	// shard journals through its own WAL, so stats are reported per
	// shard rather than summed.
	Shards map[string]IngestStatsJSON `json:"shards"`
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	parts, fail := gatherJSON[IngestStatsJSON](rt, r.Context(), "/admin/ingest")
	if fail != nil {
		fail.write(w)
		return
	}
	writeJSON(w, http.StatusOK, RouterIngestJSON{Shards: parts})
}
