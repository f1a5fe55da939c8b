package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/snapstore"
)

// These tests drive the engine the way a server does: telemetry lands
// in an ingest.Store and every build fetches the fleet from store.Fleet,
// which hands each clean vehicle the same cached series pointer.

var storeStart = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// storeConfig keeps the builds cheap: one candidate, window 3.
func storeConfig() core.PredictorConfig {
	cfg := core.DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []core.Algorithm{core.LR}
	cfg.ColdStartAlgorithm = core.LR
	return cfg
}

// report is one day of usage for vehicle id, day days after storeStart.
func report(id string, day int, seconds float64) ingest.Report {
	return ingest.Report{VehicleID: id, Date: storeStart.AddDate(0, 0, day), Seconds: seconds}
}

// seedStore fills a store with three old vehicles, a semi-new and a new
// one (allowance 600 000 s), weekdays worked and weekends idle.
func seedStore(t *testing.T) (*ingest.Store, map[string]int) {
	t.Helper()
	store := ingest.New(600_000)
	days := map[string]int{"v01": 400, "v02": 400, "v03": 400, "v04": 26, "v05": 10}
	daily := map[string]float64{"v01": 18000, "v02": 21000, "v03": 16000, "v04": 18000, "v05": 15000}
	var reports []ingest.Report
	for id, n := range days {
		for d := 0; d < n; d++ {
			sec := 0.0
			if d%7 < 5 {
				sec = daily[id] + float64((d*37+len(id)*13)%1000)
			}
			reports = append(reports, report(id, d, sec))
		}
	}
	upsert(t, store, reports...)
	return store, days
}

func upsert(t *testing.T, store *ingest.Store, reports ...ingest.Report) {
	t.Helper()
	res, err := store.UpsertBatch(reports)
	if err != nil || res.Rejected != 0 {
		t.Fatalf("upsert: %d rejected, error %v", res.Rejected, err)
	}
}

// lockedBuffer is a bytes.Buffer safe for a logger on another goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

// lastLine decodes the last JSON log line whose message is msg.
func (b *lockedBuffer) lastLine(t *testing.T, msg string) map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out map[string]any
	for _, line := range strings.Split(b.b.String(), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && rec["msg"] == msg {
			out = rec
		}
	}
	if out == nil {
		t.Fatalf("no %q log line", msg)
	}
	return out
}

// kick starts a telemetry-kicked build and waits until the engine is
// idle again.
func kick(t *testing.T, eng *engine.Engine) {
	t.Helper()
	if !eng.KickRetrainFromSource(context.Background()) {
		t.Fatal("kick refused with no build in flight")
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Status().Retraining {
		if time.Now().After(deadline) {
			t.Fatal("engine never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	if st := eng.Status(); st.LastError != "" {
		t.Fatalf("kicked build failed: %s", st.LastError)
	}
}

// TestTailDayBuildPredictsOnlyTheReporter: a build forecasts only the
// vehicles whose series changed. An old vehicle's tail day retrains
// nothing and forecasts that one vehicle; a kicked build on unchanged
// telemetry forecasts nothing; the first build after a Restore of a
// spill that covers the store's sequence forecasts nothing either; and
// one after a Restore into an engine that cannot check the coverage
// (no Seq), whose snapshot then knows no series it was built from,
// forecasts the whole fleet while it still reuses every model.
func TestTailDayBuildPredictsOnlyTheReporter(t *testing.T) {
	store, days := seedStore(t)
	var logs lockedBuffer
	cfg := engine.Config{
		Predictor: storeConfig(),
		Workers:   2,
		Source:    store.Fleet,
		Seq:       store.Seq,
		Logger:    slog.New(slog.NewJSONHandler(&logs, nil)),
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Predicted != len(days) || first.Retrained != len(days) {
		t.Fatalf("cold build predicted %d and retrained %d, want %d and %d", first.Predicted, first.Retrained, len(days), len(days))
	}

	upsert(t, store, report("v01", days["v01"], 1))
	kick(t, eng)
	snap := eng.Snapshot()
	if snap.Generation != first.Generation+1 || snap.Predicted != 1 || snap.Retrained != 0 || snap.PoolChanged {
		t.Fatalf("tail day: generation %d predicted %d retrained %d pool_changed %v, want %d, 1, 0, false",
			snap.Generation, snap.Predicted, snap.Retrained, snap.PoolChanged, first.Generation+1)
	}
	if got, want := snap.ForecastByID["v01"].AsOfDay, first.ForecastByID["v01"].AsOfDay+1; got != want {
		t.Fatalf("v01 forecast as of day %d, want %d", got, want)
	}
	if st := eng.Status(); st.Predicted != 1 {
		t.Fatalf("status predicted %d, want 1", st.Predicted)
	}
	if line := logs.lastLine(t, "retrain complete"); line["predicted"] != 1.0 {
		t.Fatalf("retrain log line says predicted %v, want 1", line["predicted"])
	}

	kick(t, eng)
	if eng.Snapshot() != snap {
		t.Fatal("a kick on unchanged telemetry published")
	}
	if line := logs.lastLine(t, "retrain unchanged; not published"); line["predicted"] != 0.0 {
		t.Fatalf("unchanged kicked build predicted %v, want 0", line["predicted"])
	}

	spill, err := snapstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := spill.Save("shard00", snap); err != nil {
		t.Fatal(err)
	}
	cfg.Logger = nil
	for _, c := range []struct {
		seq       func() uint64
		predicted int
	}{{store.Seq, 0}, {nil, len(days)}} {
		rows, err := spill.LoadRows("shard00")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seq = c.seq
		restarted, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done, err := restarted.Restore(rows.Snapshot, rows.Models, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		reconciled := restarted.Snapshot()
		if reconciled.Predicted != c.predicted || reconciled.Retrained != 0 || reconciled.PoolChanged {
			t.Fatalf("reconcile (Seq set: %v) predicted %d retrained %d pool_changed %v, want %d, 0, false",
				c.seq != nil, reconciled.Predicted, reconciled.Retrained, reconciled.PoolChanged, c.predicted)
		}
		sameRows(t, "reconcile", reconciled, snap)
	}
}

// sameRows fails unless a and b serve the same statuses, forecasts and
// forecast errors, floats by their bits.
func sameRows(t *testing.T, label string, a, b *engine.Snapshot) {
	t.Helper()
	if len(a.Statuses) != len(b.Statuses) || len(a.Forecasts) != len(b.Forecasts) || len(a.ForecastErrors) != len(b.ForecastErrors) {
		t.Fatalf("%s: %d/%d/%d statuses/forecasts/errors vs %d/%d/%d", label,
			len(a.Statuses), len(a.Forecasts), len(a.ForecastErrors), len(b.Statuses), len(b.Forecasts), len(b.ForecastErrors))
	}
	for i, sa := range a.Statuses {
		sb := b.Statuses[i]
		if sa.ID != sb.ID || sa.Category != sb.Category || sa.Strategy != sb.Strategy || sa.Algorithm != sb.Algorithm ||
			sa.Donor != sb.Donor || sa.Err != sb.Err || math.Float64bits(sa.ValidationMRE) != math.Float64bits(sb.ValidationMRE) {
			t.Fatalf("%s: status %d\n%+v\n%+v", label, i, sa, sb)
		}
	}
	for i, fa := range a.Forecasts {
		fb := b.Forecasts[i]
		if fa.VehicleID != fb.VehicleID || fa.AsOfDay != fb.AsOfDay || math.Float64bits(fa.DaysLeft) != math.Float64bits(fb.DaysLeft) ||
			!fa.DueDate.Equal(fb.DueDate) || fa.DueDate.Location() != fb.DueDate.Location() ||
			fa.Category != fb.Category || fa.Strategy != fb.Strategy {
			t.Fatalf("%s: forecast %d\n%+v\n%+v", label, i, fa, fb)
		}
	}
	for id, msg := range a.ForecastErrors {
		if b.ForecastErrors[id] != msg {
			t.Fatalf("%s: forecast error %s: %q vs %q", label, id, msg, b.ForecastErrors[id])
		}
	}
}

// TestIncrementalReplayKickedBuildsMatchFull replays seeded random
// telemetry through the store — tail days, backfills anywhere in a
// series, vehicles joining — and kicks a build after each report.
// Whatever the build carried (keys, the pool key, forecasts), every
// published generation must serve exactly what RetrainFull serves on
// the same fleet.
func TestIncrementalReplayKickedBuildsMatchFull(t *testing.T) {
	store, days := seedStore(t)
	eng, err := engine.New(engine.Config{Predictor: storeConfig(), Workers: 2, Source: store.Fleet, Seq: store.Seq})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New(engine.Config{Predictor: storeConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(7)
	ids := []string{"v01", "v02", "v03", "v04", "v05"}
	for step := 0; step < 40; step++ {
		id := ids[rnd.Intn(len(ids))]
		var event string
		switch k := rnd.Intn(10); {
		case k < 6:
			event = "tail day on " + id
			upsert(t, store, report(id, days[id], math.Round(30000*rnd.Float64())))
			days[id]++
		case k < 9:
			d := rnd.Intn(days[id])
			event = fmt.Sprintf("day %d of %s rewritten", d, id)
			upsert(t, store, report(id, d, math.Round(30000*rnd.Float64())))
		default:
			id = fmt.Sprintf("w%02d", len(ids))
			event = id + " joins"
			ids = append(ids, id)
			n := 5 + rnd.Intn(30)
			for d := 0; d < n; d++ {
				upsert(t, store, report(id, d, math.Round(25000*rnd.Float64())))
			}
			days[id] = n
		}
		kick(t, eng)
		fleet, err := store.Fleet(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RetrainFull(context.Background(), fleet)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("step %d (%s)", step, event), eng.Snapshot(), want)
	}
}
