package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkForecastServe measures the hot single-vehicle forecast GET —
// the request a deployed maintenance scheduler issues per vehicle per
// poll. Three layers:
//
//   - serve:        the full single-server HTTP path (mux dispatch,
//     handler, recorder) with a warm response cache.
//   - router:       the cluster front door's single-owner fast path —
//     the in-process backend shortcut that skips the goroutine scatter
//     and writes cached bytes straight to the wire.
//   - cached-bytes: ForecastResponse alone, the unit both paths sit on.
//     This is the zero-allocation claim: a warm hit is one lookup in
//     the generation-keyed response cache returning already-marshaled
//     bytes — 0 allocs/op, no JSON encoding. Allocations in the serve/router variants come from
//     net/http plumbing (request clone per mux match, recorder), not
//     from marshaling.
func BenchmarkForecastServe(b *testing.B) {
	const path = "/vehicles/v02/forecast"

	b.Run("serve", func(b *testing.B) {
		srv := buildServer(b)
		get(b, srv, path) // warm the response cache
		req := httptest.NewRequest(http.MethodGet, path, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})

	b.Run("router", func(b *testing.B) {
		fx := buildCluster(b, 9, 3, 0, RouterOptions{})
		routerGet(b, fx.router, path) // warm the owner's response cache
		req := httptest.NewRequest(http.MethodGet, path, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			fx.router.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})

	b.Run("cached-bytes", func(b *testing.B) {
		srv := buildServer(b)
		if status, _, _ := srv.ForecastResponse(context.Background(), "v02"); status != http.StatusOK { // warm
			b.Fatalf("status %d", status)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			status, _, body := srv.ForecastResponse(context.Background(), "v02")
			if status != http.StatusOK || len(body) == 0 {
				b.Fatalf("status %d, %d bytes", status, len(body))
			}
		}
	})
}
