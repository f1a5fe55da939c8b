// Package serve exposes the fleet engine as a JSON-over-HTTP service —
// the shape the paper's deployed system takes ("the data owner ... has
// decided to put the present application under deployment"). Endpoints:
//
//	GET  /healthz                     liveness probe
//	GET  /vehicles                    fleet overview (category, strategy)
//	GET  /vehicles/{id}/forecast      next-maintenance forecast
//	GET  /fleet/forecast              all forecasts
//	GET  /fleet/plan?capacity=2&horizon=240&maxlead=7
//	                                  workshop schedule from the forecasts
//	POST /telemetry                   batched per-vehicle daily-usage
//	                                  reports into the ingest store
//	                                  (when one is configured)
//	POST /admin/retrain[?wait=1][&full=1]
//	                                  re-ingest telemetry, rebuild in the
//	                                  background, swap snapshots; full=1
//	                                  disables incremental model reuse
//	GET  /admin/status                engine state (generation, workers, ...)
//	GET  /metrics                     Prometheus-style text metrics
//	                                  (ingest, WAL, retrains, response cache)
//	GET  /admin/ingest                ingest-store stats incl. WAL/durability
//	                                  (when configured)
//	GET  /internal/donors             this shard's old-vehicle series for
//	                                  the cluster donor exchange (when an
//	                                  ingest store is configured)
//
// Every read endpoint serves from the engine's current immutable
// snapshot: one atomic pointer load, no locks, no model math (forecasts
// are precomputed at snapshot-build time). A retrain builds the next
// snapshot off to the side and swaps it in when done, so reads are
// never blocked and never observe a half-trained fleet. Retrains are
// incremental — only vehicles whose telemetry changed retrain; the
// rest carry their models forward (see internal/engine).
//
// Data routes are generation-keyed: response bytes (per-vehicle,
// whole-fleet, and plan) are marshaled once per snapshot generation
// and then served from cache, every 200 carries a strong ETag derived
// from the generation plus an X-Fleet-Generation echo, and
// If-None-Match is honored with 304s — a polling dashboard costs ~0
// bytes between retrains (see readcache.go).
//
// The handler is a plain http.Handler built on the standard library,
// so it embeds into any existing mux or server.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Options configures the optional live-ingestion surface of a Server.
type Options struct {
	// Ingest, when set, mounts POST /telemetry and GET /admin/ingest on
	// the given store. The engine's Source should be the same store's
	// Fleet method so retrains pick the ingested telemetry up.
	Ingest *ingest.Store
	// RetrainDirty, when > 0, kicks a background incremental retrain as
	// soon as at least this many vehicles have changed since the last
	// kick. 0 leaves retraining to /admin/retrain and the periodic
	// loop.
	RetrainDirty int
	// Telemetry guards POST /telemetry (rate limit + bearer auth). In a
	// sharded deployment the guard belongs on the router — shards stay
	// trusted-internal — so cluster shard servers leave this zero.
	Telemetry GuardOptions
	// Logger receives the server's structured request logs; nil uses
	// slog.Default(). Every handled request logs one line carrying its
	// trace ID (adopted from X-Fleet-Trace or minted), so router and
	// shard logs join on the ID. Probe routes (/healthz, /readyz,
	// /metrics) log at Debug to keep Info greppable.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/ when true.
	Pprof bool
}

// Server wraps a fleet engine. All handlers are safe for arbitrary
// concurrency, including concurrently with retrains.
type Server struct {
	engine *engine.Engine
	mux    *http.ServeMux
	log    *slog.Logger

	// routeHist times every handled request per route pattern
	// (fleet_http_request_seconds); children are resolved once at route
	// registration, so the per-request cost is one Observe.
	routeHist *obs.Family

	ingest       *ingest.Store
	retrainDirty int
	telemetry    *guard
	// doors counts telemetry traffic per ingest door (JSON, binary
	// HTTP) with a sampled allocs-per-report estimate each.
	doors [numDoors]doorStats
	// kickMu guards the dirty-threshold retrain policy: lastKickSeq is
	// the store sequence the latest auto-retrain kick (started, or
	// refused and remembered by the engine) was made at; prevKickSeq is
	// the baseline to roll back to when the engine's last build failed —
	// the sequence point before the latest kick that started one — so a
	// failed build does not permanently consume its dirty set.
	kickMu      sync.Mutex
	lastKickSeq uint64
	prevKickSeq uint64

	// cacheHits/cacheMisses count per-vehicle forecast responses served
	// from the snapshot's response cache vs marshaled fresh (exported on
	// GET /metrics). A retrain swaps in a cold cache, so a miss burst
	// after each generation is expected.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	// The whole-fleet artifact and plan caches get the same accounting
	// (readcache.go); notModified counts conditional GETs answered 304.
	fleetForecastCacheHits   atomic.Uint64
	fleetForecastCacheMisses atomic.Uint64
	vehiclesCacheHits        atomic.Uint64
	vehiclesCacheMisses      atomic.Uint64
	planCacheHits            atomic.Uint64
	planCacheMisses          atomic.Uint64
	notModified              atomic.Uint64
}

// New builds the HTTP facade over an engine. The engine does not need a
// snapshot yet — endpoints answer 503 until the first build lands — so
// a server can accept traffic while the initial training runs.
func New(eng *engine.Engine) (*Server, error) {
	return NewWithOptions(eng, Options{})
}

// NewWithOptions is New plus the live-ingestion surface.
func NewWithOptions(eng *engine.Engine, opts Options) (*Server, error) {
	if eng == nil {
		return nil, errors.New("serve: nil engine")
	}
	if opts.RetrainDirty > 0 && opts.Ingest == nil {
		return nil, errors.New("serve: RetrainDirty needs an ingest store")
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Server{
		engine:       eng,
		mux:          http.NewServeMux(),
		log:          logger,
		routeHist:    newRouteFamily(),
		ingest:       opts.Ingest,
		retrainDirty: opts.RetrainDirty,
		telemetry:    newGuard(opts.Telemetry),
	}
	if s.ingest != nil {
		// Baseline the dirty-threshold policy at the store's current
		// state: boot-seeded telemetry is what the initial training
		// covers, not pending changes the threshold should count.
		s.lastKickSeq = s.ingest.Seq()
		s.prevKickSeq = s.lastKickSeq
	}
	s.route("GET /healthz", probeRoute, s.handleHealth)
	s.route("GET /readyz", probeRoute, s.handleReady)
	s.route("GET /vehicles", dataRoute, s.handleVehicles)
	s.route("GET /vehicles/{id}/forecast", dataRoute, s.handleForecast)
	s.route("GET /fleet/forecast", dataRoute, s.handleFleetForecast)
	s.route("GET /fleet/plan", dataRoute, s.handlePlan)
	s.route("POST /admin/retrain", dataRoute, s.handleRetrain)
	s.route("GET /admin/status", dataRoute, s.handleStatus)
	s.route("GET /metrics", probeRoute, s.handleMetrics)
	if s.ingest != nil {
		s.route("POST /telemetry", dataRoute, s.handleTelemetry)
		s.route("GET /admin/ingest", dataRoute, s.handleIngestStats)
		s.route("GET "+cluster.DonorsPath, dataRoute, s.handleDonors)
	}
	if opts.Pprof {
		obs.RegisterPprof(s.mux)
	}
	return s, nil
}

// newRouteFamily builds the per-route latency family both the single
// server and the cluster router export.
func newRouteFamily() *obs.Family {
	return obs.NewHistogramFamily("fleet_http_request_seconds",
		"Handled HTTP request latency per route pattern.", obs.LatencyBuckets, "route")
}

// Route classes: probe routes (health/readiness/scrape) log at Debug so
// an orchestrator's poll loop does not drown the Info log.
const (
	dataRoute  = false
	probeRoute = true
)

// route registers one handler wrapped in the observability middleware:
// adopt-or-mint the request trace ID (echoed on the response), time the
// request into the route's latency histogram, and emit one structured
// log line. The histogram child is resolved here, once, so the
// per-request record path is allocation-free.
func (s *Server) route(pattern string, probe bool, h http.HandlerFunc) {
	hist := s.routeHist.With(pattern)
	level := slog.LevelInfo
	if probe {
		level = slog.LevelDebug
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		r, trace := obs.EnsureTrace(w, r)
		t0 := time.Now()
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(&sw, r)
		dur := time.Since(t0)
		hist.Observe(dur.Seconds())
		s.log.LogAttrs(r.Context(), level, "http request",
			slog.String("trace", trace),
			slog.String("route", pattern),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("seconds", dur.Seconds()))
	})
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is sent can only be logged by
	// the caller's middleware; the payloads here are plain structs that
	// cannot fail to marshal.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// snapshot fetches the current snapshot, answering 503 when the engine
// has not finished its first build.
func (s *Server) snapshot(w http.ResponseWriter) (*engine.Snapshot, bool) {
	snap := s.engine.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, noSnapshotMsg)
		return nil, false
	}
	return snap, true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyJSON is the GET /readyz response.
type ReadyJSON struct {
	Ready      bool   `json:"ready"`
	Generation uint64 `json:"generation,omitempty"`
}

// handleReady is the readiness probe: 200 once a snapshot (trained or
// restored from a spill) is live, 503 while the process can only serve
// health checks. Liveness (/healthz) stays separate so an orchestrator
// does not kill a pod that is merely still cold-training.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if snap := s.engine.Snapshot(); snap != nil {
		writeJSON(w, http.StatusOK, ReadyJSON{Ready: true, Generation: snap.Generation})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, ReadyJSON{Ready: false})
}

// VehicleInfo is the /vehicles row.
type VehicleInfo struct {
	ID       string `json:"id"`
	Category string `json:"category"`
	Strategy string `json:"strategy"`
	Model    string `json:"model"`
	// Error is set for vehicles whose training failed; the rest of the
	// fleet serves normally around them.
	Error string `json:"error,omitempty"`
}

func (s *Server) handleVehicles(w http.ResponseWriter, r *http.Request) {
	status, etag, body := s.VehiclesResponse()
	if status != http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
		return
	}
	s.writeCached(w, r, etag[1:len(etag)-1], etag, body)
}

// ForecastJSON is the wire form of a core.Forecast.
type ForecastJSON struct {
	VehicleID string  `json:"vehicle_id"`
	DaysLeft  float64 `json:"days_left"`
	DueDate   string  `json:"due_date"`
	Category  string  `json:"category"`
	Strategy  string  `json:"strategy"`
}

func toJSON(f core.Forecast) ForecastJSON {
	return ForecastJSON{
		VehicleID: f.VehicleID,
		DaysLeft:  f.DaysLeft,
		DueDate:   f.DueDate.Format("2006-01-02"),
		Category:  f.Category.String(),
		Strategy:  f.Strategy,
	}
}

// encodeJSON marshals exactly like writeJSON does on the wire —
// json.NewEncoder.Encode, trailing newline included — so cached bytes
// are indistinguishable from a fresh marshal.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// ForecastResponse resolves GET /vehicles/{id}/forecast to its status
// code, entity tag, and response body without touching an
// http.ResponseWriter. The 200 path serves (and populates) the current
// snapshot's response cache, so a hot vehicle is marshaled once per
// generation and then served as raw bytes; the cluster router calls
// this directly for in-process shards, skipping the whole HTTP round
// trip. Error responses carry no tag — they are uncacheable. The
// returned bytes are shared — callers must write, not mutate, them.
func (s *Server) ForecastResponse(id string) (status int, etag string, body []byte) {
	snap := s.engine.Snapshot()
	if snap == nil {
		return http.StatusServiceUnavailable, "", encodeJSON(map[string]string{"error": noSnapshotMsg})
	}
	if b, ok := snap.CachedResponse(id); ok {
		s.cacheHits.Add(1)
		return http.StatusOK, snap.ETag(), b
	}
	// Precomputed at snapshot build: the hot path does no model math.
	if f, ok := snap.ForecastByID[id]; ok {
		s.cacheMisses.Add(1)
		b := encodeJSON(toJSON(f))
		snap.StoreCachedResponse(id, b)
		return http.StatusOK, snap.ETag(), b
	}
	// Error responses stay uncached: failed-forecast vehicles are cold
	// paths, and unknown IDs are attacker-controlled cache keys.
	if msg, ok := snap.ForecastErrors[id]; ok {
		return http.StatusInternalServerError, "", encodeJSON(map[string]string{"error": msg})
	}
	return http.StatusNotFound, "", encodeJSON(map[string]string{"error": fmt.Sprintf("unknown vehicle %q", id)})
}

// CacheStats reports the response-cache hit/miss counters.
func (s *Server) CacheStats() (hits, misses uint64) {
	return s.cacheHits.Load(), s.cacheMisses.Load()
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	status, etag, body := s.ForecastResponse(r.PathValue("id"))
	if status == http.StatusOK {
		s.writeCached(w, r, etag[1:len(etag)-1], etag, body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// FleetForecastJSON is the /fleet/forecast response. Errors lists the
// vehicles no forecast could be precomputed for, so a fleet-wide read
// never silently loses a vehicle.
type FleetForecastJSON struct {
	Forecasts []ForecastJSON    `json:"forecasts"`
	Errors    map[string]string `json:"errors,omitempty"`
}

func (s *Server) handleFleetForecast(w http.ResponseWriter, r *http.Request) {
	status, etag, body := s.FleetForecastResponse()
	if status != http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
		return
	}
	s.writeCached(w, r, etag[1:len(etag)-1], etag, body)
}

// PlanJSON is the wire form of a workshop plan.
type PlanJSON struct {
	Assignments []AssignmentJSON `json:"assignments"`
	Unscheduled []string         `json:"unscheduled,omitempty"`
}

// AssignmentJSON is one scheduled maintenance slot.
type AssignmentJSON struct {
	VehicleID string `json:"vehicle_id"`
	Day       string `json:"day"`
	LeadDays  int    `json:"lead_days"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	p, err := parsePlanParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The scheduling day is computed once and folded into the cache key,
	// so identical same-day queries hit cached bytes and the key rolls
	// over at UTC midnight by construction.
	now, day := planDay()
	key := p.cacheKey(day)
	etag := planETag(snap.ETag(), key)
	if body, ok := snap.CachedPlan(key); ok {
		s.planCacheHits.Add(1)
		s.writeCached(w, r, snap.GenerationID(), etag, body)
		return
	}
	reqs := make([]sched.Request, 0, len(snap.Forecasts))
	for _, f := range snap.Forecasts {
		due := f.DueDate
		if due.Before(now) {
			due = now
		}
		reqs = append(reqs, sched.Request{VehicleID: f.VehicleID, Due: due, Uncertainty: 2})
	}
	body, err := buildPlanBody(reqs, snap.ForecastErrors, p, now)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.planCacheMisses.Add(1)
	snap.StorePlan(key, body)
	s.writeCached(w, r, snap.GenerationID(), etag, body)
}

// RetrainJSON acknowledges a retrain request.
type RetrainJSON struct {
	// Started reports whether a rebuild was kicked off.
	Started bool `json:"started"`
	// Generation is the snapshot generation at response time — for a
	// waited retrain, the fresh build's generation.
	Generation uint64 `json:"generation"`
}

// handleRetrain re-ingests telemetry through the engine's fleet source
// and rebuilds the snapshot. By default the rebuild runs in the
// background and 202 is returned immediately; with ?wait=1 the handler
// blocks until the new snapshot is live (or the build fails). Rebuilds
// are incremental — unchanged vehicles carry their models forward —
// unless ?full=1 requests the from-scratch escape hatch. Either way at
// most one handler-initiated rebuild is in flight: further kicks
// answer 409 instead of queueing redundant trainings.
func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	wait, err := boolQuery(r, "wait")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	full, err := boolQuery(r, "full")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if wait {
		// Deliberately detached from the request context: a client
		// disconnect or timeout must not abort (and discard) a
		// fleet-wide rebuild that is already underway.
		snap, err := s.engine.TryRetrainFromSource(context.Background(), full)
		switch {
		case errors.Is(err, engine.ErrRetrainInFlight):
			writeError(w, http.StatusConflict, err.Error())
		case err != nil:
			writeError(w, http.StatusInternalServerError, err.Error())
		default:
			writeJSON(w, http.StatusOK, RetrainJSON{Started: true, Generation: snap.Generation})
		}
		return
	}
	// The engine's single-flight covers every initiator — handler
	// kicks and the periodic retrain loop alike. Failures of the
	// detached rebuild land in /admin/status.
	if !s.engine.BeginRetrainFromSource(r.Context(), full) {
		writeError(w, http.StatusConflict, engine.ErrRetrainInFlight.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, RetrainJSON{Started: true, Generation: s.engine.Status().Generation})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Status())
}

// ReportJSON is the wire form of one telemetry report.
type ReportJSON struct {
	Vehicle string  `json:"vehicle"`
	Date    string  `json:"date"` // "2006-01-02"
	Seconds float64 `json:"seconds"`
}

// TelemetryRequest is the POST /telemetry body.
type TelemetryRequest struct {
	Reports []ReportJSON `json:"reports"`
}

// TelemetryResponse is the per-batch accept/reject report plus whether
// the batch tripped the dirty-retrain threshold.
type TelemetryResponse struct {
	ingest.BatchResult
	RetrainStarted bool `json:"retrain_started"`
}

// maxTelemetryBody bounds a telemetry batch (32 MiB ≈ several years of
// daily reports for a thousand-vehicle fleet).
const maxTelemetryBody = 32 << 20

// maxTelemetryReports bounds the per-batch report count independently
// of body size.
const maxTelemetryReports = 500_000

// maybeKickRetrain kicks a background incremental retrain when the
// number of vehicles changed since the last kick reaches the
// configured threshold, and reports whether a build started. The
// sequence point advances either way: a kick that meets a build (or its
// spill) in flight is refused but remembered by the engine, whose one
// follow-up build re-reads the store and so covers everything up to
// here without waiting for another batch. If the engine's last build
// *failed*, the baseline rolls back so the dirty set it was meant to
// cover counts again instead of being silently consumed.
func (s *Server) maybeKickRetrain(ctx context.Context) bool {
	if s.retrainDirty <= 0 {
		return false
	}
	s.kickMu.Lock()
	defer s.kickMu.Unlock()
	if st := s.engine.Status(); !st.Retraining && st.LastError != "" {
		// Nothing has succeeded since that failure (a success clears the
		// error): restore the baseline so the vehicles the kicks since
		// then covered re-trigger on this or a later batch.
		s.lastKickSeq = s.prevKickSeq
	}
	if len(s.ingest.DirtySince(s.lastKickSeq)) < s.retrainDirty {
		return false
	}
	seq := s.ingest.Seq()
	started := s.engine.KickRetrainFromSource(ctx)
	if started {
		s.prevKickSeq = s.lastKickSeq
	}
	s.lastKickSeq = seq
	return started
}

// IngestStatsJSON is the GET /admin/ingest response: store stats plus
// the dirty set the retrain threshold is currently judging.
type IngestStatsJSON struct {
	ingest.Stats
	// RetrainDirtyThreshold echoes the configured threshold (0 =
	// disabled).
	RetrainDirtyThreshold int `json:"retrain_dirty_threshold"`
	// DirtySinceLastRetrain lists vehicles changed since the last
	// threshold-triggered retrain kick.
	DirtySinceLastRetrain []string `json:"dirty_since_last_retrain,omitempty"`
	// Doors breaks telemetry traffic down per ingest door (JSON,
	// binary HTTP), each with its sampled allocs-per-report.
	Doors []DoorStatsJSON `json:"doors"`
}

// handleDonors serves the donor-series exchange (shard-to-shard; the
// cluster router does not expose it): this shard's old vehicles' raw
// contiguous daily series, sorted by ID. Peers prepare the series
// through the same §3 pipeline and register them via core.AddDonor, so
// their cold-start donor pools stay fleet-wide — and bit-identical to
// an unsharded build — without any raw-telemetry replication (see
// cluster.DonorExchangeSource).
func (s *Server) handleDonors(w http.ResponseWriter, r *http.Request) {
	// Fleet prepares (with caching) the stored vehicles; categorization
	// runs on the prepared series exactly as training's partitioning
	// does.
	fleet, err := s.ingest.Fleet(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("serve: deriving donor series: %v", err))
		return
	}
	out := DonorSet{Vehicles: []cluster.DonorSeries{}}
	for _, v := range fleet {
		if core.Categorize(v.Series) != core.Old {
			continue
		}
		start, u, ok := s.ingest.RawSeries(v.Series.ID)
		if !ok {
			continue
		}
		out.Vehicles = append(out.Vehicles, cluster.DonorSeries{
			ID:    v.Series.ID,
			Start: start.Format("2006-01-02"),
			U:     u,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// DonorSet aliases the cluster wire type so API consumers of this
// package see the whole shard surface in one place.
type DonorSet = cluster.DonorSet

func (s *Server) handleIngestStats(w http.ResponseWriter, _ *http.Request) {
	s.kickMu.Lock()
	lastKick := s.lastKickSeq
	s.kickMu.Unlock()
	writeJSON(w, http.StatusOK, IngestStatsJSON{
		Stats:                 s.ingest.Stats(),
		RetrainDirtyThreshold: s.retrainDirty,
		DirtySinceLastRetrain: s.ingest.DirtySince(lastKick),
		Doors:                 s.doorStatsJSON(),
	})
}

func boolQuery(r *http.Request, key string) (bool, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("serve: query parameter %q must be a boolean, got %q", key, raw)
	}
	return v, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func intQuery(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("serve: query parameter %q must be an integer, got %q", key, raw)
	}
	return v, nil
}
