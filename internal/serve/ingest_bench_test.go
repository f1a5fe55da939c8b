package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ingest"
)

// The ingest benchmarks measure the telemetry doors end to end — mux
// dispatch, guard, body decode, store upsert — in the steady state a
// fleet collector produces: the same vehicles re-reporting day after
// day, so upserts are idempotent re-deliveries and the store's content
// (and journal) does not grow across iterations. The canonical batch is
// 100 reports = 10 vehicles × 10 days, the shape the ≥5x binary-vs-JSON
// acceptance criterion is pinned at.
const (
	benchVehicles    = 10
	benchDaysPerVeh  = 10
	benchBatchSize   = benchVehicles * benchDaysPerVeh
	benchSecondsBase = 9000.0
)

// benchReports builds the canonical batch in wire-JSON form.
func benchReportsJSON() []ReportJSON {
	base := time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC)
	reports := make([]ReportJSON, 0, benchBatchSize)
	for v := 0; v < benchVehicles; v++ {
		id := fmt.Sprintf("bench-%03d", v)
		for d := 0; d < benchDaysPerVeh; d++ {
			reports = append(reports, ReportJSON{
				Vehicle: id,
				Date:    base.AddDate(0, 0, d).Format("2006-01-02"),
				Seconds: benchSecondsBase + float64(v*benchDaysPerVeh+d),
			})
		}
	}
	return reports
}

// benchBody is a resettable request body: a bytes.Reader with a no-op
// Close, so the benchmark loop re-arms the same request without
// allocating a fresh reader or NopCloser per iteration.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// discardWriter is an http.ResponseWriter that drops the response body,
// so iterations measure the ingest path rather than recorder growth.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(s int)           { w.status = s }

// postBench drives one pre-built body through the server's mux once,
// reusing the request, body reader and writer across calls.
func postBench(srv *Server, req *http.Request, body *benchBody, raw []byte, w *discardWriter) int {
	body.Reset(raw)
	req.Body = body
	w.status = http.StatusOK
	srv.ServeHTTP(w, req)
	return w.status
}

// BenchmarkTelemetryIngest measures reports/sec and allocs/report for
// both ingest doors at the canonical batch size. The JSON row is the
// baseline the binary row is judged against in BENCH_ingest.json.
func BenchmarkTelemetryIngest(b *testing.B) {
	jsonBody := encodeJSON(TelemetryRequest{Reports: benchReportsJSON()})

	b.Run("json/batch=100", func(b *testing.B) {
		srv, _, _ := ingestServer(b, 0)
		req := httptest.NewRequest(http.MethodPost, "/telemetry", nil)
		req.Header.Set("Content-Type", "application/json")
		body := &benchBody{}
		w := &discardWriter{h: make(http.Header)}
		if status := postBench(srv, req, body, jsonBody, w); status != http.StatusOK {
			b.Fatalf("warmup status %d", status)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if status := postBench(srv, req, body, jsonBody, w); status != http.StatusOK {
				b.Fatalf("status %d", status)
			}
		}
		b.ReportMetric(float64(benchBatchSize)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	})

	b.Run("binary/batch=100", func(b *testing.B) {
		srv, _, _ := ingestServer(b, 0)
		frame, err := ingest.EncodeWireFrame(benchReportsWire())
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/telemetry", nil)
		req.Header.Set("Content-Type", ingest.ContentTypeBinary)
		body := &benchBody{}
		w := &discardWriter{h: make(http.Header)}
		if status := postBench(srv, req, body, frame, w); status != http.StatusOK {
			b.Fatalf("warmup status %d", status)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if status := postBench(srv, req, body, frame, w); status != http.StatusOK {
				b.Fatalf("status %d", status)
			}
		}
		b.ReportMetric(float64(benchBatchSize)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	})
}
