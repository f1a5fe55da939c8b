package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
)

// postBinary posts one framed binary wire batch built from reports.
func postBinary(t testing.TB, srv *Server, reports []ingest.Report) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	frame, err := ingest.EncodeWireFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(string(frame)))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// parityReports is the cross-door fixture: a mix of accepted reports,
// every per-report rejection class, and a multi-day vehicle, so the
// bit-identity and validation-parity tests exercise each branch.
func parityReports() []ingest.Report {
	feb := func(d int) time.Time { return time.Date(2016, 2, d, 0, 0, 0, 0, time.UTC) }
	return []ingest.Report{
		{VehicleID: "v01", Date: feb(10), Seconds: 12345},
		{VehicleID: "v01", Date: feb(11), Seconds: 23456},
		{VehicleID: "v02", Date: feb(10), Seconds: -4},                                    // negative seconds
		{VehicleID: "v02", Date: feb(11), Seconds: 8000},                                  // accepted
		{VehicleID: "v03", Date: time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC), Seconds: 1}, // before horizon
		{VehicleID: "v03", Date: time.Now().UTC().AddDate(1, 0, 0), Seconds: 1},           // in the future
		{VehicleID: "", Date: feb(10), Seconds: 1},                                        // empty ID
		{VehicleID: strings.Repeat("x", 257), Date: feb(10), Seconds: 1},                  // oversized ID
		{VehicleID: "v04", Date: feb(12), Seconds: 90000},                                 // exceeds daily max
	}
}

// storeFingerprint summarizes a store's observable content: sorted
// vehicle IDs with their content hashes plus the accept/reject
// counters — the bit-identity the acceptance criterion pins.
func storeFingerprint(t testing.TB, store *ingest.Store) string {
	t.Helper()
	ids := store.Vehicles()
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		h, ok := store.Hash(id)
		if !ok {
			t.Fatalf("vehicle %s listed but has no hash", id)
		}
		fmt.Fprintf(&b, "%s=%016x\n", id, h)
	}
	st := store.Stats()
	fmt.Fprintf(&b, "accepted=%d rejected=%d changed=%d", st.Accepted, st.Rejected, st.Changed)
	return b.String()
}

// toReportJSON converts store reports to the JSON wire form.
func toReportJSON(reports []ingest.Report) []ReportJSON {
	out := make([]ReportJSON, len(reports))
	for i, r := range reports {
		out[i] = ReportJSON{Vehicle: r.VehicleID, Date: r.Date.Format("2006-01-02"), Seconds: r.Seconds}
	}
	return out
}

// TestBinaryTelemetryBitIdenticalToJSON is the acceptance criterion:
// the same reports pushed through the JSON door and the binary door
// leave two identically-seeded stores in bit-identical state — same
// vehicles, same content hashes, same counters — and the doors agree
// on every per-vehicle accept/reject verdict and error string.
func TestBinaryTelemetryBitIdenticalToJSON(t *testing.T) {
	srvJSON, _, storeJSON := ingestServer(t, 0)
	srvBin, _, storeBin := ingestServer(t, 0)
	reports := parityReports()

	body, err := json.Marshal(TelemetryRequest{Reports: toReportJSON(reports)})
	if err != nil {
		t.Fatal(err)
	}
	recJ, bodyJ := postJSON(t, srvJSON, "/telemetry", string(body))
	if recJ.Code != http.StatusOK {
		t.Fatalf("JSON door = %d: %s", recJ.Code, bodyJ)
	}
	recB, bodyB := postBinary(t, srvBin, reports)
	if recB.Code != http.StatusOK {
		t.Fatalf("binary door = %d: %s", recB.Code, bodyB)
	}

	var ackJ, ackB TelemetryResponse
	if err := json.Unmarshal(bodyJ, &ackJ); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyB, &ackB); err != nil {
		t.Fatal(err)
	}
	if ackJ.Accepted != ackB.Accepted || ackJ.Rejected != ackB.Rejected || ackJ.Changed != ackB.Changed {
		t.Fatalf("door totals diverge: json %+v binary %+v", ackJ.BatchResult, ackB.BatchResult)
	}
	if ackB.Rejected == 0 {
		t.Fatal("fixture must include rejections so the binary ack carries the per-vehicle map")
	}
	// With rejections present the binary ack carries the full
	// per-vehicle breakdown; verdicts and error strings must match the
	// JSON door's exactly (shared validation helpers).
	if !reflect.DeepEqual(ackJ.Vehicles, ackB.Vehicles) {
		t.Fatalf("per-vehicle verdicts diverge:\njson   %+v\nbinary %+v", ackJ.Vehicles, ackB.Vehicles)
	}

	if gotJ, gotB := storeFingerprint(t, storeJSON), storeFingerprint(t, storeBin); gotJ != gotB {
		t.Fatalf("store content diverges:\njson door\n%s\nbinary door\n%s", gotJ, gotB)
	}
}

// TestBinaryDoorCompactAck: an all-accepted binary batch acks totals
// only (no per-vehicle map); any rejection restores the full breakdown.
func TestBinaryDoorCompactAck(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	ok := []ingest.Report{{VehicleID: "v01", Date: time.Date(2016, 2, 20, 0, 0, 0, 0, time.UTC), Seconds: 1000}}
	rec, body := postBinary(t, srv, ok)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary door = %d: %s", rec.Code, body)
	}
	var ack TelemetryResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || len(ack.Vehicles) != 0 {
		t.Fatalf("all-accepted ack %+v, want compact totals-only form", ack)
	}

	bad := []ingest.Report{{VehicleID: "v01", Date: time.Date(2016, 2, 21, 0, 0, 0, 0, time.UTC), Seconds: -1}}
	rec, body = postBinary(t, srv, bad)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary door = %d: %s", rec.Code, body)
	}
	ack = TelemetryResponse{}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Rejected != 1 || len(ack.Vehicles) != 1 || len(ack.Vehicles["v01"].Errors) != 1 {
		t.Fatalf("rejection ack %+v, want the per-vehicle breakdown back", ack)
	}
}

// TestBinaryDoorStructureErrors: malformed bodies map to the right
// statuses and never touch the store.
func TestBinaryDoorStructureErrors(t *testing.T) {
	srv, _, store := ingestServer(t, 0)
	before := store.Stats()
	post := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", ingest.ContentTypeBinary)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	good, err := ingest.EncodeWireFrame(parityReports()[:1])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"empty body", nil, http.StatusBadRequest},
		{"truncated frame head", good[:4], http.StatusBadRequest},
		{"crc mismatch", append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^0xff), http.StatusBadRequest},
		{"trailing bytes", append(append([]byte{}, good...), 0), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := post(tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	if after := store.Stats(); after.Accepted != before.Accepted || after.Rejected != before.Rejected {
		t.Fatalf("malformed bodies touched the store: %+v -> %+v", before, after)
	}
}

// TestBinaryDoorAllocsPerReport pins the acceptance criterion: at
// batch size 100, steady-state re-delivery through the full HTTP
// handler costs at most 1 heap allocation per report.
func TestBinaryDoorAllocsPerReport(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	reports := benchReportsWire()
	frame, err := ingest.EncodeWireFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", nil)
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	body := &benchBody{}
	w := &discardWriter{h: make(http.Header)}
	// First delivery inserts the vehicles; re-deliveries are the steady
	// state the pin covers.
	if code := postBench(srv, req, body, frame, w); code != http.StatusOK {
		t.Fatalf("warmup post = %d", code)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if code := postBench(srv, req, body, frame, w); code != http.StatusOK {
			t.Fatalf("post = %d", code)
		}
	})
	perReport := allocs / float64(len(reports))
	t.Logf("binary door: %.1f allocs/batch = %.3f allocs/report at batch %d", allocs, perReport, len(reports))
	if perReport > 1.0 {
		t.Fatalf("binary door allocates %.3f/report at batch %d, acceptance bound is 1", perReport, len(reports))
	}
}

// benchReportsWire builds the benchmark fixture as store reports
// (bench vehicles x days, same values as benchReportsJSON).
func benchReportsWire() []ingest.Report {
	base := time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC)
	var out []ingest.Report
	for v := 0; v < benchVehicles; v++ {
		for d := 0; d < benchDaysPerVeh; d++ {
			out = append(out, ingest.Report{
				VehicleID: fmt.Sprintf("bench-%03d", v),
				Date:      base.AddDate(0, 0, d),
				Seconds:   benchSecondsBase + float64(v*10+d),
			})
		}
	}
	return out
}

// TestRouterBinaryPartitioned: a binary frame posted at the router
// splits by ring owner at the raw-group level — every report lands
// exactly in its owner's store — and the merged ack matches the JSON
// path's accounting plus the binary compact-ack contract.
func TestRouterBinaryPartitioned(t *testing.T) {
	const vehicles = 6
	pc := buildPartitionedCluster(t, vehicles, 3, 0)

	day := time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC)
	var reports []ingest.Report
	for i := 1; i <= vehicles; i++ {
		reports = append(reports, ingest.Report{VehicleID: fmt.Sprintf("v%02d", i), Date: day, Seconds: 12345})
	}
	frame, err := ingest.EncodeWireFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(string(frame)))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
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
	if len(tr.Vehicles) != 0 {
		t.Fatalf("all-accepted binary ack lists %d vehicles, want the compact form", len(tr.Vehicles))
	}

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

	// A rejection anywhere restores the merged per-vehicle breakdown.
	bad := []ingest.Report{{VehicleID: "v01", Date: day.AddDate(0, 0, 1), Seconds: -1}}
	frame, err = ingest.EncodeWireFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(string(frame)))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	rec = httptest.NewRecorder()
	pc.router.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry = %d: %s", rec.Code, rec.Body)
	}
	tr = TelemetryResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Rejected != 1 || len(tr.Vehicles) != 1 {
		t.Fatalf("rejection ack %+v, want 1 rejected with the breakdown", tr)
	}
}

// TestRouterBinarySharedStore: with SharedIngest the router applies a
// binary frame exactly once.
func TestRouterBinarySharedStore(t *testing.T) {
	fx := buildCluster(t, 6, 3, 0, RouterOptions{})
	var backends []ShardBackend
	for _, sh := range fx.sharded.Shards() {
		srv, err := NewWithOptions(sh.Engine, Options{Ingest: fx.store})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, ShardBackend{Name: sh.Name, Handler: srv})
	}
	router, err := NewRouter(fx.sharded.Ring(), backends, RouterOptions{SharedIngest: fx.store})
	if err != nil {
		t.Fatal(err)
	}

	before := fx.store.Stats().Accepted
	var reports []ingest.Report
	for i := 1; i <= 6; i++ {
		reports = append(reports, ingest.Report{VehicleID: fmt.Sprintf("v%02d", i), Date: time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC), Seconds: 11111})
	}
	frame, err := ingest.EncodeWireFrame(reports)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(string(frame)))
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /telemetry = %d: %s", rec.Code, rec.Body)
	}
	var tr TelemetryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Accepted != 6 || tr.Changed != 6 {
		t.Fatalf("shared-store binary result %+v, want 6 accepted/changed", tr.BatchResult)
	}
	if got := fx.store.Stats().Accepted - before; got != 6 {
		t.Fatalf("store accepted %d for a 6-report frame, want exactly 6 (single upsert)", got)
	}
}

// TestDoorStatsExposed: /admin/ingest breaks traffic down per door and
// /metrics carries the per-door series.
func TestDoorStatsExposed(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	if rec, body := postJSON(t, srv, "/telemetry", `{"reports":[{"vehicle":"v01","date":"2016-02-10","seconds":1}]}`); rec.Code != http.StatusOK {
		t.Fatalf("JSON post = %d: %s", rec.Code, body)
	}
	if rec, body := postBinary(t, srv, parityReports()[:1]); rec.Code != http.StatusOK {
		t.Fatalf("binary post = %d: %s", rec.Code, body)
	}

	rec, body := doGet(t, srv, "/admin/ingest")
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/ingest = %d", rec.Code)
	}
	var st IngestStatsJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Doors) != numDoors {
		t.Fatalf("%d doors reported, want %d", len(st.Doors), numDoors)
	}
	byDoor := map[string]DoorStatsJSON{}
	for _, d := range st.Doors {
		byDoor[d.Door] = d
	}
	if byDoor["json"].Batches != 1 || byDoor["json"].Reports != 1 {
		t.Fatalf("json door stats %+v, want 1 batch / 1 report", byDoor["json"])
	}
	if byDoor["binary"].Batches != 1 || byDoor["binary"].Reports != 1 {
		t.Fatalf("binary door stats %+v, want 1 batch / 1 report", byDoor["binary"])
	}

	rec, body = doGet(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	for _, want := range []string{
		`fleet_ingest_door_batches{door="json"} 1`,
		`fleet_ingest_door_batches{door="binary"} 1`,
		`fleet_ingest_door_reports{door="binary"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
