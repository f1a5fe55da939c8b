package main

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// testFleet is a small corrupted fleet: missing (NaN) days that replay
// must skip, plus out-of-range days the server must reject.
func testFleet(t *testing.T) *telematics.Fleet {
	t.Helper()
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 4
	cfg.Days = 400
	cfg.Corrupt = true
	cfg.CorruptionRate = 0.05
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestReplayMatchesDirectUpsert replays a fleet over the binary door of
// a real server and checks the store ends up holding exactly what a
// direct UpsertBatch of the same reports, dated from their calendar-day
// strings, would hold: every non-NaN day sent once, on the right UTC day.
func TestReplayMatchesDirectUpsert(t *testing.T) {
	fleet := testFleet(t)
	store := ingest.New(timeseries.DefaultAllowance)
	eng, err := engine.New(engine.Config{Predictor: core.DefaultPredictorConfig(), Workers: 1, Source: store.Fleet})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewWithOptions(eng, serve.Options{Ingest: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := replay(fleet, ts.URL, 90, ""); err != nil {
		t.Fatal(err)
	}

	want := ingest.New(timeseries.DefaultAllowance)
	var reports []ingest.Report
	missing := 0
	for _, v := range fleet.Vehicles {
		for d, sec := range v.RawU {
			if math.IsNaN(sec) {
				missing++
				continue
			}
			day, err := time.Parse("2006-01-02", v.Start.AddDate(0, 0, d).Format("2006-01-02"))
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, ingest.Report{VehicleID: v.Profile.ID, Date: day, Seconds: sec})
		}
	}
	if _, err := want.UpsertBatch(reports); err != nil {
		t.Fatal(err)
	}

	got, ref := store.Stats(), want.Stats()
	if got.Accepted+got.Rejected != uint64(len(reports)) {
		t.Fatalf("server saw %d accepted + %d rejected reports, want the fleet's %d non-NaN days", got.Accepted, got.Rejected, len(reports))
	}
	if got.Accepted != ref.Accepted || got.Rejected != ref.Rejected {
		t.Fatalf("replay accepted %d / rejected %d, direct upsert %d / %d", got.Accepted, got.Rejected, ref.Accepted, ref.Rejected)
	}
	if missing == 0 || ref.Rejected == 0 {
		t.Fatalf("fixture must include missing days (%d) and out-of-range days the store rejects (%d)", missing, ref.Rejected)
	}
	for _, v := range fleet.Vehicles {
		id := v.Profile.ID
		gh, gok := store.Hash(id)
		wh, wok := want.Hash(id)
		if !gok || !wok || gh != wh {
			t.Errorf("vehicle %s: replayed hash %x (present %v), direct %x (present %v)", id, gh, gok, wh, wok)
		}
	}
}

func TestReplayRejectsNonPositiveBatchDays(t *testing.T) {
	if err := replay(testFleet(t), "http://127.0.0.1:0", 0, ""); err == nil {
		t.Fatal("replay accepted -batch-days 0")
	}
}
