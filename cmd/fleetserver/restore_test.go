package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/serve"
	"repro/internal/snapstore"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// restoreFixture is one trained, spilled generation over a live store:
// what a restarted fleetserver finds on disk.
type restoreFixture struct {
	store *ingest.Store
	snaps *snapstore.Store
	cfg   core.PredictorConfig
	spilt *engine.Snapshot
}

const restoreShard = "shard00"

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func newRestoreFixture(t *testing.T) *restoreFixture {
	t.Helper()
	fcfg := telematics.DefaultFleetConfig()
	fcfg.Vehicles, fcfg.Days = 5, 500
	fleet, err := telematics.GenerateFleet(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	store := ingest.New(timeseries.DefaultAllowance)
	if _, err := store.SeedFromFleet(fleet); err != nil {
		t.Fatal(err)
	}
	snaps, err := snapstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []core.Algorithm{core.LR, core.LSVR}
	cfg.ColdStartAlgorithm = core.LR
	eng := newEngine(t, cfg, store.Fleet)
	snap, err := eng.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Save(restoreShard, snap); err != nil {
		t.Fatal(err)
	}
	return &restoreFixture{store: store, snaps: snaps, cfg: cfg, spilt: snap}
}

func newEngine(t *testing.T, cfg core.PredictorConfig, src engine.Source) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{Predictor: cfg, Workers: 2, Source: src, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newServer(t *testing.T, eng *engine.Engine, store *ingest.Store) http.Handler {
	t.Helper()
	srv, err := serve.NewWithOptions(eng, serve.Options{Ingest: store, RetrainDirty: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// eagerReads restores the spill models and all, as a boot that decodes
// everything before serving does, and returns its reads.
func (f *restoreFixture) eagerReads(t *testing.T) map[string]string {
	t.Helper()
	snap, err := f.snaps.Load(restoreShard)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, f.cfg, f.store.Fleet)
	if _, err := eng.Restore(snap, nil, false); err != nil {
		t.Fatal(err)
	}
	return reads(t, newServer(t, eng, f.store), f.spilt)
}

// reads returns every read route's status, validators and body, keyed
// by path.
func reads(t *testing.T, h http.Handler, snap *engine.Snapshot) map[string]string {
	t.Helper()
	paths := []string{"/readyz", "/vehicles", "/fleet/forecast", "/fleet/plan?capacity=1&horizon=500"}
	for _, st := range snap.Statuses {
		paths = append(paths, "/vehicles/"+st.ID+"/forecast")
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", p, rec.Code, rec.Body)
		}
		out[p] = fmt.Sprintf("etag %s gen %s\n%s", rec.Header().Get("ETag"), rec.Header().Get(serve.HeaderFleetGeneration), rec.Body)
	}
	return out
}

func retraining(t *testing.T, h http.Handler) bool {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/status", nil))
	var st engine.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st.Retraining
}

// waitIdle waits for every build the engine runs on its own (a
// follow-up for a kick refused meanwhile) to end.
func waitIdle(t *testing.T, eng *engine.Engine) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); eng.Status().Retraining; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("engine still retraining after 30 s")
		}
	}
}

// TestRestoredRowsServeWhileModelsDecode: with the model decode held
// open, every read of the restored generation answers 200 with the
// bytes an eager restore serves and /admin/status reports retraining;
// a report acknowledged meanwhile is reflected by the reconcile that
// runs after the decode.
func TestRestoredRowsServeWhileModelsDecode(t *testing.T) {
	f := newRestoreFixture(t)
	want := f.eagerReads(t)

	rows, err := readSnapshots(f.snaps, []string{restoreShard})(restoreShard)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t, f.cfg, f.store.Fleet)
	gate := make(chan struct{})
	decoded := false
	reconciled, err := eng.Restore(rows.Snapshot, func() (map[string]ml.Regressor, error) {
		<-gate
		decoded = true
		return rows.Models()
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, eng, f.store)
	got := reads(t, srv, f.spilt)
	for p, w := range want {
		if got[p] != w {
			t.Errorf("GET %s during the decode:\n%s\nwant what an eager restore serves:\n%s", p, got[p], w)
		}
	}
	if !retraining(t, srv) {
		t.Error("/admin/status reports retraining:false while the restored models decode")
	}

	// Acknowledge a tail-day report for an old vehicle during the decode,
	// straight into the store as the WAL replay does, so no kick covers
	// it and only the reconcile can. At zero seconds it completes no
	// cycle, so it costs no fit.
	var id string
	for _, st := range f.spilt.Statuses {
		if st.Category == core.Old {
			id = st.ID
			break
		}
	}
	start, u, _ := f.store.RawSeries(id)
	if _, err := f.store.UpsertBatch([]ingest.Report{{VehicleID: id, Date: start.AddDate(0, 0, len(u)), Seconds: 0}}); err != nil {
		t.Fatal(err)
	}
	if asOf := eng.Snapshot().ForecastByID[id].AsOfDay; asOf != len(u)-1 {
		t.Fatalf("%s is forecast as of day %d during the decode, want the restored day %d", id, asOf, len(u)-1)
	}

	close(gate)
	reconcileRetrain(eng, reconciled, 0, restoreShard)
	waitIdle(t, eng)
	if !decoded {
		t.Fatal("the reconcile finished without the model decode")
	}
	snap := eng.Snapshot()
	if asOf := snap.ForecastByID[id].AsOfDay; asOf != len(u) {
		t.Fatalf("%s is forecast as of day %d after the reconcile, want the acknowledged day %d", id, asOf, len(u))
	}
	if snap.Generation != f.spilt.Generation+1 || snap.Retrained != 0 {
		t.Errorf("reconcile: generation %d retrained %d, want %d and a full reuse of the decoded models", snap.Generation, snap.Retrained, f.spilt.Generation+1)
	}
}

// TestUndecodableModelTableServesRows: a CRC-valid spill whose model
// table does not decode still restores: its rows serve, byte-identical
// to an eager restore of the intact file, and the reconcile after the
// failed decode retrains every vehicle into a generation whose statuses
// and forecasts are RetrainFull's, byte for byte.
func TestUndecodableModelTableServesRows(t *testing.T) {
	f := newRestoreFixture(t)
	want := f.eagerReads(t)

	// Give the first model table entry a family tag no build writes.
	path := filepath.Join(f.snaps.Dir(), restoreShard+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first ml.Regressor
	for _, st := range f.spilt.Statuses {
		if first = f.spilt.Models[st.ID]; first != nil {
			break
		}
	}
	enc, err := first.(interface{ AppendBinary([]byte) ([]byte, error) }).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, enc)
	if at < 5 {
		t.Fatal("the model's encoding is not in the spill")
	}
	data[at-5] = 0xee // the entry's family tag precedes its u32 length
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.snaps.Load(restoreShard); err == nil {
		t.Fatal("the corrupted model table still decodes")
	}

	// The reconcile's fetch waits until the rows have been read, so no
	// reconciled generation can answer them.
	gate := make(chan struct{})
	eng := newEngine(t, f.cfg, func(ctx context.Context) ([]engine.Vehicle, error) {
		<-gate
		return f.store.Fleet(ctx)
	})
	reconciled, ok := restoreSnapshot(eng, readSnapshots(f.snaps, []string{restoreShard}), restoreShard, true)
	if !ok {
		t.Fatal("a spill with intact rows was not restored")
	}
	srv := newServer(t, eng, f.store)
	got := reads(t, srv, f.spilt)
	for p, w := range want {
		if got[p] != w {
			t.Errorf("GET %s of the restored rows:\n%s\nwant what an eager restore of the intact file serves:\n%s", p, got[p], w)
		}
	}
	close(gate)
	reconcileRetrain(eng, reconciled, 0, restoreShard)
	waitIdle(t, eng)

	snap := eng.Snapshot()
	if snap.Generation != f.spilt.Generation+1 || snap.Retrained != len(snap.Statuses) {
		t.Fatalf("after a failed decode: generation %d retrained %d of %d, want generation %d retraining every vehicle",
			snap.Generation, snap.Retrained, len(snap.Statuses), f.spilt.Generation+1)
	}
	full, err := newEngine(t, f.cfg, f.store.Fleet).TryRetrainFromSource(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"statuses", snap.Statuses, full.Statuses},
		{"forecasts", snap.Forecasts, full.Forecasts},
		{"forecast errors", snap.ForecastErrors, full.ForecastErrors},
		{"failed vehicles", snap.FailedVehicles, full.FailedVehicles},
		{"model keys", snap.ModelKeys, full.ModelKeys},
	} {
		if g, w := fmt.Sprintf("%#v", c.got), fmt.Sprintf("%#v", c.want); g != w {
			t.Errorf("%s after a failed decode:\n%s\nwant RetrainFull's:\n%s", c.name, g, w)
		}
	}
}

// TestReadYourWritesDuringRestore: a restored generation covers no
// store sequence, so while the model decode is held open a read of a
// vehicle with a recovered report waits for the reconcile and answers
// with the reconcile's generation — exactly the bytes and tag the
// settled server serves — never with the restored rows.
func TestReadYourWritesDuringRestore(t *testing.T) {
	f := newRestoreFixture(t)
	rows, err := readSnapshots(f.snaps, []string{restoreShard})(restoreShard)
	if err != nil {
		t.Fatal(err)
	}
	// A tail-day report only the WAL replay recovered: at zero seconds
	// it completes no cycle but moves the forecast's as-of day.
	var id string
	for _, st := range f.spilt.Statuses {
		if st.Category == core.Old {
			id = st.ID
			break
		}
	}
	start, u, _ := f.store.RawSeries(id)
	if _, err := f.store.UpsertBatch([]ingest.Report{{VehicleID: id, Date: start.AddDate(0, 0, len(u)), Seconds: 0}}); err != nil {
		t.Fatal(err)
	}

	eng, err := engine.New(engine.Config{Predictor: f.cfg, Workers: 2, Source: f.store.Fleet, Seq: f.store.Seq, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reconciled, err := eng.Restore(rows.Snapshot, func() (map[string]ml.Regressor, error) {
		<-gate
		return rows.Models()
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, eng, f.store)
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/vehicles/"+id+"/forecast", nil))
		return rec
	}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- get() }()
	select {
	case rec := <-done:
		t.Fatalf("read answered during the model decode: %d, generation %s", rec.Code, rec.Header().Get(serve.HeaderFleetGeneration))
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	first := <-done
	reconcileRetrain(eng, reconciled, 0, restoreShard)
	waitIdle(t, eng)

	snap := eng.Snapshot()
	if snap.Generation != f.spilt.Generation+1 {
		t.Fatalf("generation %d after the reconcile, want %d", snap.Generation, f.spilt.Generation+1)
	}
	if got := first.Header().Get(serve.HeaderFleetGeneration); first.Code != http.StatusOK || got != snap.GenerationID() {
		t.Fatalf("read during the restore: %d, generation %s, want 200 from the reconcile's %s", first.Code, got, snap.GenerationID())
	}
	settled := get()
	if first.Body.String() != settled.Body.String() || first.Header().Get("ETag") != settled.Header().Get("ETag") {
		t.Fatalf("read during the restore:\n%s %s\nthe settled server serves:\n%s %s",
			first.Header().Get("ETag"), first.Body, settled.Header().Get("ETag"), settled.Body)
	}
}

// TestReadYourWritesFailedReconcileAnswersRestoredRows pins what a read
// costs during a restore. The spill does not say which store sequence
// its rows reflect, so a read of any stored vehicle — one the spilled
// rows already reflect included — waits while the restore holds the
// engine. A reconcile that fails ends that wait at once: the read
// answers with the restored rows ("nothing_coming"), not at the cap.
func TestReadYourWritesFailedReconcileAnswersRestoredRows(t *testing.T) {
	f := newRestoreFixture(t)
	rows, err := readSnapshots(f.snaps, []string{restoreShard})(restoreShard)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Predictor: f.cfg, Workers: 2, Seq: f.store.Seq, Logger: quiet,
		Source: func(context.Context) ([]engine.Vehicle, error) { return nil, fmt.Errorf("donor peers down") }})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reconciled, err := eng.Restore(rows.Snapshot, func() (map[string]ml.Regressor, error) {
		<-gate
		return rows.Models()
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, eng, f.store)
	id := f.spilt.Statuses[0].ID
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/vehicles/"+id+"/forecast", nil))
		done <- rec
	}()
	select {
	case rec := <-done:
		t.Fatalf("read of a stored vehicle answered during the model decode: %d", rec.Code)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	rec := <-done
	if err := <-reconciled; err == nil {
		t.Fatal("reconcile from a failing source succeeded")
	}
	if got := rec.Header().Get(serve.HeaderFleetGeneration); rec.Code != http.StatusOK || got != f.spilt.GenerationID() {
		t.Fatalf("read during a failed reconcile: %d, generation %s, want 200 from the restored %s", rec.Code, got, f.spilt.GenerationID())
	}
	metrics := httptest.NewRecorder()
	srv.ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := `fleet_forecast_wait_total{outcome="nothing_coming"} 1`; !bytes.Contains(metrics.Body.Bytes(), []byte(want)) {
		t.Fatalf("/metrics lacks %s", want)
	}
}

// TestUnchangedVehicleReadAnswersWhileReconcileGated: the restored
// generation covers the store sequence its spill covered, so while the
// reconcile's fetch is held open a read of a vehicle not reported since
// the spill answers at once with the restored rows, and a read of one
// reported since waits for the reconcile and answers with its
// generation.
func TestUnchangedVehicleReadAnswersWhileReconcileGated(t *testing.T) {
	f := newRestoreFixture(t)
	// Respill the fixture's generation from an engine wired to the
	// store's sequence, as the fleetserver's engines are.
	spiller, err := engine.New(engine.Config{Predictor: f.cfg, Workers: 2, Source: f.store.Fleet, Seq: f.store.Seq, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	spilt, err := spiller.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.snaps.Save(restoreShard, spilt); err != nil {
		t.Fatal(err)
	}
	var reported, clean string
	for _, st := range spilt.Statuses {
		switch {
		case st.Category == core.Old && reported == "":
			reported = st.ID
		case clean == "":
			clean = st.ID
		}
	}
	start, u, _ := f.store.RawSeries(reported)
	if _, err := f.store.UpsertBatch([]ingest.Report{{VehicleID: reported, Date: start.AddDate(0, 0, len(u)), Seconds: 0}}); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	eng, err := engine.New(engine.Config{Predictor: f.cfg, Workers: 2, Seq: f.store.Seq, Logger: quiet,
		Source: func(ctx context.Context) ([]engine.Vehicle, error) {
			<-gate
			return f.store.Fleet(ctx)
		}})
	if err != nil {
		t.Fatal(err)
	}
	reconciled, ok := restoreSnapshot(eng, readSnapshots(f.snaps, []string{restoreShard}), restoreShard, true)
	if !ok {
		t.Fatal("the spill was not restored")
	}
	srv := newServer(t, eng, f.store)
	get := func(id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/vehicles/"+id+"/forecast", nil))
		return rec
	}
	waiting := make(chan *httptest.ResponseRecorder, 1)
	go func() { waiting <- get(reported) }()

	rec := get(clean)
	if got := rec.Header().Get(serve.HeaderFleetGeneration); rec.Code != http.StatusOK || got != spilt.GenerationID() {
		t.Fatalf("read of unchanged %s during the gated reconcile: %d, generation %s, want 200 from the restored %s", clean, rec.Code, got, spilt.GenerationID())
	}
	if !retraining(t, srv) {
		t.Fatal("/admin/status reports retraining:false while the reconcile is gated")
	}
	select {
	case rec := <-waiting:
		t.Fatalf("read of %s, reported since the spill, answered during the gated reconcile: %d", reported, rec.Code)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	first := <-waiting
	reconcileRetrain(eng, reconciled, 0, restoreShard)
	waitIdle(t, eng)
	snap := eng.Snapshot()
	if got := first.Header().Get(serve.HeaderFleetGeneration); first.Code != http.StatusOK || got != snap.GenerationID() {
		t.Fatalf("read of %s: %d, generation %s, want 200 from the reconcile's %s", reported, first.Code, got, snap.GenerationID())
	}
	if snap.Predicted != 1 || snap.Retrained != 0 {
		t.Fatalf("reconcile predicted %d retrained %d, want %s alone forecast and nothing fitted", snap.Predicted, snap.Retrained, reported)
	}
}
