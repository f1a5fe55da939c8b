package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ingest"
)

// appendReportsFromJSON converts wire reports to store reports the way
// the JSON door did before its direct decoder: a date time.Parse
// refuses stays zero. With a fresh json.Unmarshal in front of it, it is
// the oracle decodeTelemetryJSON is held to.
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

// oracleDecode is the reference decode of one body.
func oracleDecode(body []byte) ([]ingest.Report, error) {
	var req TelemetryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return appendReportsFromJSON(nil, req.Reports), nil
}

// sameReports compares field by field: the ID as a string, the date by
// instant and location, the seconds by bits.
func sameReports(got, want []ingest.Report) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d reports, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.VehicleID != w.VehicleID:
			return fmt.Errorf("report %d: vehicle %q, want %q", i, g.VehicleID, w.VehicleID)
		case !g.Date.Equal(w.Date) || g.Date.Location() != w.Date.Location():
			return fmt.Errorf("report %d: date %v, want %v", i, g.Date, w.Date)
		case math.Float64bits(g.Seconds) != math.Float64bits(w.Seconds):
			return fmt.Errorf("report %d: seconds %v, want %v", i, g.Seconds, w.Seconds)
		}
	}
	return nil
}

// checkDecodeMatchesOracle is the differential property for one body.
func checkDecodeMatchesOracle(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := oracleDecode(body)
	got, err := decodeTelemetryJSON(nil, body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decoder error %v, encoding/json error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if err := sameReports(got, want); err != nil {
		t.Fatal(err)
	}

	// A pooled destination holds earlier batches' reports past its
	// length: the decoder must neither read them nor touch its prefix.
	stale := make([]ingest.Report, 1, 1+len(want)+4)
	for i := range stale[:cap(stale)] {
		stale[:cap(stale)][i] = ingest.Report{VehicleID: "stale", Date: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), Seconds: 777}
	}
	got, err = decodeTelemetryJSON(stale, body)
	if err != nil {
		t.Fatalf("decode into a used buffer: %v", err)
	}
	if err := sameReports(got[:1], stale[:1]); err != nil {
		t.Fatalf("prefix changed: %v", err)
	}
	if err := sameReports(got[1:], want); err != nil {
		t.Fatalf("decode into a used buffer: %v", err)
	}

	// The router's re-encoding decodes back to the same reports.
	sub := []byte(`{"reports":[`)
	for i, r := range want {
		if i > 0 {
			sub = append(sub, ',')
		}
		sub = appendReportJSON(sub, r)
	}
	sub = append(sub, "]}"...)
	again, err := decodeTelemetryJSON(nil, sub)
	if err != nil {
		t.Fatalf("re-encoded batch %q: %v", sub, err)
	}
	if err := sameReports(again, want); err != nil {
		t.Fatalf("re-encoded batch %q: %v", sub, err)
	}
}

// FuzzTelemetryJSON: for any body the JSON door's decoder errors
// exactly when a fresh json.Unmarshal into TelemetryRequest does, and
// otherwise yields the reports the old decode-then-convert path built.
// The seed corpus lives in testdata/fuzz/FuzzTelemetryJSON.
func FuzzTelemetryJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesOracle(t, body)
	})
}

// telemetryCorpus reads the fuzz seed corpus, sorted by file name.
func telemetryCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzTelemetryJSON")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(s)
	}
	return out
}

func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestParseDayMatchesTimeParse: the fixed-layout date parser equals
// time.Parse("2006-01-02") on every month 00–19 and day 00–39 of
// years that cover the leap rules, and on malformed shapes.
func TestParseDayMatchesTimeParse(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := time.Parse("2006-01-02", s)
		if err != nil {
			want = time.Time{}
		}
		if got := parseDay([]byte(s)); got != want {
			t.Fatalf("parseDay(%q) = %v, time.Parse gives %v (err %v)", s, got, want, err)
		}
	}
	for _, year := range []int{0, 1900, 1989, 1990, 2000, 2004, 2023, 2024, 2100, 9999} {
		for month := 0; month <= 19; month++ {
			for day := 0; day <= 39; day++ {
				check(fmt.Sprintf("%04d-%02d-%02d", year, month, day))
			}
		}
	}
	for _, s := range []string{
		"+202-01-01", "-202-01-01", "2020-1-01", "2020-01-1", "2020-01-011", "2020-01-0",
		"202001-01", "2020/01/01", "2020-01-01 ", " 2020-01-01", "2020-+1-01", "2020-01-+1",
		"2020-0a-01", "２020-01-01", "", "2020", "2020-01-01T00:00:00Z", "0001-01-01",
	} {
		check(s)
	}
}

// TestJSONDoorNoCarryOver: a report's missing fields are those of a
// fresh decode, never the ones an earlier request left in the door's
// pooled buffers. The second body names no vehicle, so it must be
// rejected, and v01's stored day must stay as the first body wrote it.
func TestJSONDoorNoCarryOver(t *testing.T) {
	srv, _, store := ingestServer(t, 0)
	const first = `{"reports":[{"vehicle":"v01","date":"2016-01-01","seconds":100}]}`
	const second = `{"reports":[{"seconds":777}]}`
	for round := 0; round < 8; round++ {
		if rec, body := postJSON(t, srv, "/telemetry", first); rec.Code != http.StatusOK {
			t.Fatalf("round %d: first post = %d: %s", round, rec.Code, body)
		}
		hash, _ := store.Hash("v01")
		start, series, _ := store.RawSeries("v01")
		rec, body := postJSON(t, srv, "/telemetry", second)
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: second post = %d: %s", round, rec.Code, body)
		}
		var ack TelemetryResponse
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != 0 || ack.Rejected != 1 || ack.Vehicles[""] == nil {
			t.Fatalf("round %d: second post acked %s, want one rejection under the empty vehicle id", round, body)
		}
		if h, _ := store.Hash("v01"); h != hash {
			t.Fatalf("round %d: v01's hash moved %016x -> %016x", round, hash, h)
		}
		if st, s, _ := store.RawSeries("v01"); !st.Equal(start) || !reflect.DeepEqual(s, series) {
			t.Fatalf("round %d: v01's stored series changed", round)
		}
	}
}

// TestJSONDoorAllocsPerReport: the JSON door, steady-state re-delivery
// of the canonical 100-report batch through the whole handler, costs at
// most one heap allocation per report.
func TestJSONDoorAllocsPerReport(t *testing.T) {
	srv, _, _ := ingestServer(t, 0)
	raw := encodeJSON(TelemetryRequest{Reports: benchReportsJSON()})
	req := httptest.NewRequest(http.MethodPost, "/telemetry", nil)
	req.Header.Set("Content-Type", "application/json")
	body := &benchBody{}
	w := &discardWriter{h: make(http.Header)}
	if code := postBench(srv, req, body, raw, w); code != http.StatusOK {
		t.Fatalf("warmup post = %d", code)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if code := postBench(srv, req, body, raw, w); code != http.StatusOK {
			t.Fatalf("post = %d", code)
		}
	})
	perReport := allocs / benchBatchSize
	t.Logf("JSON door: %.1f allocs/batch = %.3f allocs/report at batch %d", allocs, perReport, benchBatchSize)
	if perReport > 1.0 {
		t.Fatalf("JSON door allocates %.3f/report at batch %d, bound is 1", perReport, benchBatchSize)
	}
}

// TestTelemetryCorpusDecodes runs the differential property over the
// seed corpus in every `go test`, not only under -fuzz.
func TestTelemetryCorpusDecodes(t *testing.T) {
	corpus := telemetryCorpus(t)
	for _, name := range sortedNames(corpus) {
		t.Run(name, func(t *testing.T) { checkDecodeMatchesOracle(t, corpus[name]) })
	}
}

// jsonDoor is one way into a store: a handler and the stores behind it.
type jsonDoor struct {
	name   string
	h      http.Handler
	stores []*ingest.Store
}

// TestJSONDoorsAgreeOnCorpus posts the fuzz seed corpus, in one order,
// through the server's JSON door, the router's shared-store door and
// the router's partitioned door (remote shards, each with its own
// store). Every body gets the same status everywhere; every accepted
// body the same totals and the same per-vehicle verdicts and errors;
// and the stores end with equal fingerprints.
func TestJSONDoorsAgreeOnCorpus(t *testing.T) {
	newServer := func(store *ingest.Store) *Server {
		eng, err := engine.New(testEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewWithOptions(eng, Options{Ingest: store})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	ring, err := cluster.NewRingOf(0, cluster.ShardNames(3)...)
	if err != nil {
		t.Fatal(err)
	}

	single := ingest.New(600_000)
	doors := []jsonDoor{{name: "server", h: newServer(single), stores: []*ingest.Store{single}}}

	shared := ingest.New(600_000)
	var backends []ShardBackend
	for _, name := range ring.Shards() {
		backends = append(backends, ShardBackend{Name: name, Handler: newServer(shared)})
	}
	rt, err := NewRouter(ring, backends, RouterOptions{SharedIngest: shared})
	if err != nil {
		t.Fatal(err)
	}
	doors = append(doors, jsonDoor{name: "router-shared", h: rt, stores: []*ingest.Store{shared}})

	var remote []ShardBackend
	var parts []*ingest.Store
	for _, name := range ring.Shards() {
		store := ingest.New(600_000)
		ts := httptest.NewServer(newServer(store))
		t.Cleanup(ts.Close)
		remote = append(remote, NewRemoteBackend(name, ts.URL, nil))
		parts = append(parts, store)
	}
	if rt, err = NewRouter(ring, remote, RouterOptions{}); err != nil {
		t.Fatal(err)
	}
	doors = append(doors, jsonDoor{name: "router-partitioned", h: rt, stores: parts})

	corpus := telemetryCorpus(t)
	accepted := 0
	for _, name := range sortedNames(corpus) {
		var acks []TelemetryResponse
		var codes []int
		for _, d := range doors {
			req := httptest.NewRequest(http.MethodPost, "/telemetry", strings.NewReader(string(corpus[name])))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			d.h.ServeHTTP(rec, req)
			codes = append(codes, rec.Code)
			var ack TelemetryResponse
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
					t.Fatalf("%s via %s: ack %q: %v", name, d.name, rec.Body, err)
				}
			}
			acks = append(acks, ack)
		}
		for i, d := range doors[1:] {
			if codes[i+1] != codes[0] {
				t.Fatalf("%s: %s answers %d, the server door %d", name, d.name, codes[i+1], codes[0])
			}
			a, want := acks[i+1], acks[0]
			if a.Accepted != want.Accepted || a.Rejected != want.Rejected || a.Changed != want.Changed {
				t.Fatalf("%s: %s totals %+v, server door %+v", name, d.name, a.BatchResult, want.BatchResult)
			}
			if !reflect.DeepEqual(a.Vehicles, want.Vehicles) {
				t.Fatalf("%s: %s per-vehicle results diverge from the server door's", name, d.name)
			}
		}
		if codes[0] == http.StatusOK {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(corpus) {
		t.Fatalf("%d of %d corpus bodies accepted: the corpus must hold both kinds", accepted, len(corpus))
	}
	want := storeFingerprint(t, doors[0].stores...)
	if !strings.Contains(want, "v01=") {
		t.Fatalf("server door stored nothing from the corpus:\n%s", want)
	}
	for _, d := range doors[1:] {
		if got := storeFingerprint(t, d.stores...); got != want {
			t.Fatalf("%s store content diverges:\n%s\nserver door:\n%s", d.name, got, want)
		}
	}
}
