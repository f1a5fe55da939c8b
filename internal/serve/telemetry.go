// The telemetry doors: POST /telemetry speaks JSON (the original wire
// form) or, switched by Content-Type, the binary frame format from
// internal/ingest; both apply to the same store and answer with a
// durable acknowledgement. This file holds the shared door accounting
// (batches, reports, rejected, and a sampled allocations-per-report
// estimate per door, so the JSON-vs-binary gap is measured in
// production, not guessed from benchmarks) plus the two door handlers.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ingest"
	"repro/internal/wal"
)

// Door indexes into Server.doors.
const (
	doorJSON = iota
	doorBinary
	numDoors
)

// doorNames spells the door label on /metrics and /admin/ingest.
var doorNames = [numDoors]string{"json", "binary"}

// allocSampleEvery: one batch in this many pays two runtime/metrics
// reads (a few microseconds) to estimate the door's decode+apply
// allocation cost. Concurrent batches on other goroutines can inflate
// a sample, so the estimate is an upper bound under load.
const allocSampleEvery = 64

// doorStats counts one ingest door's traffic. All fields are atomics;
// the struct is updated on the hot path without locks.
type doorStats struct {
	batches  atomic.Uint64
	reports  atomic.Uint64 // accepted + rejected
	rejected atomic.Uint64

	sampledBatches atomic.Uint64
	sampledReports atomic.Uint64
	sampledAllocs  atomic.Uint64
}

// begin opens one batch observation: it bumps the batch counter and,
// on sampled batches, snapshots the heap allocation counter.
func (d *doorStats) begin() (sampled bool, allocs0 uint64) {
	if d.batches.Add(1)%allocSampleEvery == 1 {
		return true, heapAllocObjects()
	}
	return false, 0
}

// finish records one batch's outcome; on sampled batches it closes the
// allocation window begin opened.
func (d *doorStats) finish(res ingest.BatchResult, sampled bool, allocs0 uint64) {
	n := uint64(res.Accepted + res.Rejected)
	d.reports.Add(n)
	d.rejected.Add(uint64(res.Rejected))
	if sampled {
		d.sampledBatches.Add(1)
		d.sampledReports.Add(n)
		d.sampledAllocs.Add(heapAllocObjects() - allocs0)
	}
}

// allocsPerReport is the sampled decode+apply allocation estimate; -1
// until the first sampled batch with at least one report lands.
func (d *doorStats) allocsPerReport() float64 {
	r := d.sampledReports.Load()
	if r == 0 {
		return -1
	}
	return float64(d.sampledAllocs.Load()) / float64(r)
}

// heapAllocObjects reads the cumulative heap-allocated object count —
// cheap (no stop-the-world), unlike runtime.ReadMemStats.
func heapAllocObjects() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// DoorStatsJSON is one door's slice of GET /admin/ingest.
type DoorStatsJSON struct {
	Door     string `json:"door"`
	Batches  uint64 `json:"batches"`
	Reports  uint64 `json:"reports"`
	Rejected uint64 `json:"rejected"`
	// AllocsPerReport estimates heap allocations per report on this
	// door's decode+apply path, sampled every allocSampleEvery batches
	// (-1 before the first sample).
	AllocsPerReport float64 `json:"allocs_per_report"`
}

// doorStatsJSON snapshots every door, in doorNames order.
func (s *Server) doorStatsJSON() []DoorStatsJSON {
	out := make([]DoorStatsJSON, numDoors)
	for i := range s.doors {
		d := &s.doors[i]
		out[i] = DoorStatsJSON{
			Door:            doorNames[i],
			Batches:         d.batches.Load(),
			Reports:         d.reports.Load(),
			Rejected:        d.rejected.Load(),
			AllocsPerReport: d.allocsPerReport(),
		}
	}
	return out
}

// isBinaryTelemetry reports whether the request selected the binary
// frame format (exactly, or with media-type parameters appended).
func isBinaryTelemetry(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == ingest.ContentTypeBinary || strings.HasPrefix(ct, ingest.ContentTypeBinary+";")
}

// handleTelemetry ingests one batch of per-vehicle daily-usage
// reports, JSON or binary by Content-Type. Validation is per report: a
// malformed body (JSON syntax, frame or wire-structure error) is
// rejected wholesale with 400, but individually invalid reports only
// mark their own vehicle's slice of the accept/reject response — one
// bad sensor must not discard a whole fleet upload. Re-delivering a
// batch is harmless (idempotent upserts).
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if !s.telemetry.admit(w, r) {
		return
	}
	if isBinaryTelemetry(r) {
		s.handleTelemetryBinary(w, r)
		return
	}
	s.handleTelemetryJSON(w, r)
}

// telemetryScratch pools the JSON door's per-batch buffers: the body
// bytes, the decoded wire batch (json.Unmarshal reuses the Reports
// backing array) and the converted store batch. Pooling these cuts the
// door's allocations to the per-report strings JSON inherently costs.
type telemetryScratch struct {
	body    bytes.Buffer
	req     TelemetryRequest
	reports []ingest.Report
}

var telemetryScratchPool = sync.Pool{New: func() any { return new(telemetryScratch) }}

// Scratch buffers beyond these caps are dropped instead of pooled, so
// one huge batch does not pin its buffers for the process lifetime.
const (
	poolBodyCap    = 1 << 20
	poolReportsCap = 1 << 16
)

func (sc *telemetryScratch) release() {
	if sc.body.Cap() > poolBodyCap || cap(sc.req.Reports) > poolReportsCap || cap(sc.reports) > poolReportsCap {
		return
	}
	telemetryScratchPool.Put(sc)
}

func (s *Server) handleTelemetryJSON(w http.ResponseWriter, r *http.Request) {
	d := &s.doors[doorJSON]
	sampled, allocs0 := d.begin()

	r.Body = http.MaxBytesReader(w, r.Body, maxTelemetryBody)
	sc := telemetryScratchPool.Get().(*telemetryScratch)
	defer sc.release()
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: telemetry batch exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: reading telemetry batch: %v", err))
		return
	}
	sc.req.Reports = sc.req.Reports[:0]
	if err := json.Unmarshal(sc.body.Bytes(), &sc.req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: decoding telemetry batch: %v", err))
		return
	}
	if len(sc.req.Reports) > maxTelemetryReports {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: batch of %d reports exceeds the %d-report limit", len(sc.req.Reports), maxTelemetryReports))
		return
	}
	sc.reports = appendReportsFromJSON(sc.reports[:0], sc.req.Reports)
	res, err := s.ingest.UpsertBatch(sc.reports)
	d.finish(res, sampled, allocs0)
	if err != nil {
		// The batch may be applied in memory but is not durably
		// journaled: do not acknowledge it. Idempotent upserts make the
		// client's retry safe.
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := TelemetryResponse{BatchResult: res}
	// Check the dirty threshold even when *this* batch changed nothing:
	// with a shared store behind several shard servers (the in-process
	// cluster), the router upserts a batch once and scatters the shards
	// an *empty* batch — but every shard must still notice the store
	// moved and judge its own retrain trigger.
	out.RetrainStarted = s.maybeKickRetrain(r.Context())
	writeJSON(w, http.StatusOK, out)
}

// frameScratchPool holds body buffers for the binary door; the frame
// is parsed in place, so one pooled buffer is the door's only per-batch
// byte allocation.
var frameScratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// handleTelemetryBinary ingests one wal-framed binary wire batch (see
// internal/ingest's wire format). The ack is the same TelemetryResponse
// the JSON door sends, except the per-vehicle breakdown is included
// only when something was rejected — at line rate an all-accepted ack
// carries totals, not a map re-listing every vehicle.
func (s *Server) handleTelemetryBinary(w http.ResponseWriter, r *http.Request) {
	d := &s.doors[doorBinary]
	sampled, allocs0 := d.begin()

	r.Body = http.MaxBytesReader(w, r.Body, maxTelemetryBody)
	buf := frameScratchPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= poolBodyCap {
			frameScratchPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("serve: telemetry batch exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: reading telemetry batch: %v", err))
		return
	}
	body := buf.Bytes()
	payload, n, err := wal.ParseFrame(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: parsing telemetry frame: %v", err))
		return
	}
	if n != len(body) {
		writeError(w, http.StatusBadRequest, "serve: trailing bytes after telemetry frame")
		return
	}
	res, err := s.ingest.UpsertBinary(payload, maxTelemetryReports)
	d.finish(res, sampled, allocs0)
	if err != nil {
		switch {
		case errors.Is(err, ingest.ErrBatchTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.Is(err, ingest.ErrWireTruncated), errors.Is(err, ingest.ErrWireTrailing), errors.Is(err, ingest.ErrWireVersion):
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			// Journaling failed after application: same non-ack contract
			// as the JSON door.
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	out := TelemetryResponse{BatchResult: res}
	if res.Rejected == 0 {
		out.Vehicles = nil
	}
	out.RetrainStarted = s.maybeKickRetrain(r.Context())
	writeJSON(w, http.StatusOK, out)
}

// appendReportsFromJSON converts wire reports to store reports into a
// reusable slice. A bad date leaves Date zero; the store rejects the
// report with a per-report error, keeping one bookkeeping path.
func appendReportsFromJSON(dst []ingest.Report, in []ReportJSON) []ingest.Report {
	for _, rj := range in {
		rep := ingest.Report{VehicleID: rj.Vehicle, Seconds: rj.Seconds}
		if d, err := time.Parse("2006-01-02", rj.Date); err == nil {
			rep.Date = d
		}
		dst = append(dst, rep)
	}
	return dst
}
