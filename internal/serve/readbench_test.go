package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
)

// syntheticSnapshot fabricates an n-vehicle snapshot without training:
// fleet-read benchmarks measure the serving path, not the predictor,
// and training 100k vehicles per benchmark run would drown the signal.
// The snapshot carries everything the read path touches (statuses,
// forecasts, indexes) plus the config hash Restore demands.
func syntheticSnapshot(cfg engine.Config, ids []string) *engine.Snapshot {
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	snap := &engine.Snapshot{
		Statuses:     make([]core.VehicleStatus, 0, len(ids)),
		StatusByID:   make(map[string]core.VehicleStatus, len(ids)),
		Forecasts:    make([]core.Forecast, 0, len(ids)),
		ForecastByID: make(map[string]core.Forecast, len(ids)),
		Generation:   1,
		BuiltAt:      base,
		ConfigHash:   cfg.Predictor.Hash(),
	}
	for i, id := range ids {
		st := core.VehicleStatus{ID: id, Category: core.Old, Strategy: "per-vehicle", Algorithm: core.LR}
		snap.Statuses = append(snap.Statuses, st)
		snap.StatusByID[id] = st
		f := core.Forecast{
			VehicleID: id,
			AsOfDay:   400,
			DaysLeft:  float64(30 + i%300),
			DueDate:   base.AddDate(0, 0, 30+i%300),
			Category:  core.Old,
			Strategy:  "per-vehicle",
		}
		snap.Forecasts = append(snap.Forecasts, f)
		snap.ForecastByID[id] = f
	}
	return snap
}

func syntheticIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%06d", i+1)
	}
	return ids
}

// syntheticServer wraps a Restore'd synthetic snapshot in a Server.
func syntheticServer(tb testing.TB, n int) *Server {
	tb.Helper()
	cfg := testEngineConfig()
	eng, err := engine.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Restore(syntheticSnapshot(cfg, syntheticIDs(n)), nil, false); err != nil {
		tb.Fatal(err)
	}
	srv, err := New(eng)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// syntheticRouter builds a router over in-process shards, each holding
// its ring-owned slice of a synthetic n-vehicle fleet.
func syntheticRouter(tb testing.TB, n, shards int) *Router {
	tb.Helper()
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("shard%02d", i)
	}
	ring, err := cluster.NewRingOf(0, names...)
	if err != nil {
		tb.Fatal(err)
	}
	owned := make(map[string][]string, shards)
	for _, id := range syntheticIDs(n) { // ID order, so each slice stays sorted
		owner := ring.Owner(id)
		owned[owner] = append(owned[owner], id)
	}
	cfg := testEngineConfig()
	backends := make([]ShardBackend, 0, shards)
	for _, name := range names {
		eng, err := engine.New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.Restore(syntheticSnapshot(cfg, owned[name]), nil, false); err != nil {
			tb.Fatal(err)
		}
		srv, err := New(eng)
		if err != nil {
			tb.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: name, Handler: srv})
	}
	rt, err := NewRouter(ring, backends, RouterOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// BenchmarkFleetForecastRead measures GET /fleet/forecast on a single
// server across fleet sizes:
//
//   - uncached: the per-request marshal the route performed before the
//     generation-keyed cache — the baseline the cache is
//     measured against.
//   - warm: the cached path, full HTTP stack included.
//   - cached-bytes: FleetForecastResponse alone — one generation-keyed
//     cache lookup returning shared bytes, the 0 allocs/op claim.
//   - not-modified: a conditional GET holding the current tag — the
//     steady state of a polling dashboard, no body written at all.
func BenchmarkFleetForecastRead(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			srv := syntheticServer(b, n)
			snap := srv.engine.Snapshot()

			b.Run("uncached", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if body := buildFleetForecastBody(snap); len(body) == 0 {
						b.Fatal("empty body")
					}
				}
			})

			req := httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil)
			get(b, srv, "/fleet/forecast") // warm the whole-fleet cache
			b.Run("warm", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d", rec.Code)
					}
				}
			})

			b.Run("cached-bytes", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					status, _, body := srv.FleetForecastResponse()
					if status != http.StatusOK || len(body) == 0 {
						b.Fatalf("status %d", status)
					}
				}
			})

			creq := httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil)
			creq.Header.Set("If-None-Match", snap.ETag())
			b.Run("not-modified", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, creq)
					if rec.Code != http.StatusNotModified {
						b.Fatalf("status %d", rec.Code)
					}
				}
			})
		})
	}
}

// BenchmarkFleetForecastRouter measures the merged /fleet/forecast
// through a 3-shard router:
//
//   - uncached: the decode-merge path this PR replaced — scatter,
//     decode every shard's JSON, merge structs, re-encode. Kept
//     callable (mergeFleetForecasts) as the byte-identity oracle.
//   - warm: the vector-keyed merge cache — per-shard tag validation,
//     cached merged bytes.
//   - not-modified: warm cache plus a client holding the merged tag.
func BenchmarkFleetForecastRouter(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rt := syntheticRouter(b, n, 3)

			b.Run("uncached", func(b *testing.B) {
				ctx := context.Background()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					parts, fail := gatherJSON[FleetForecastJSON](rt, ctx, "/fleet/forecast")
					if fail != nil {
						b.Fatalf("gather failed: %v", fail.Shards)
					}
					if body := encodeJSON(mergeFleetForecasts(parts)); len(body) == 0 {
						b.Fatal("empty body")
					}
				}
			})

			req := httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil)
			rec := httptest.NewRecorder()
			rt.ServeHTTP(rec, req) // warm the merge cache
			if rec.Code != http.StatusOK {
				b.Fatalf("warming status %d", rec.Code)
			}
			etag := rec.Header().Get("ETag")

			b.Run("warm", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					rt.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d", rec.Code)
					}
				}
			})

			creq := httptest.NewRequest(http.MethodGet, "/fleet/forecast", nil)
			creq.Header.Set("If-None-Match", etag)
			b.Run("not-modified", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					rt.ServeHTTP(rec, creq)
					if rec.Code != http.StatusNotModified {
						b.Fatalf("status %d", rec.Code)
					}
				}
			})
		})
	}
}
