package snapstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/timeseries"
)

// synthXY builds a small deterministic regression problem.
func synthXY(n, p int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = math.Sin(float64(i*p+j)) * float64(j+1)
		}
		x[i] = row
		y[i] = 3*row[0] - 2*row[p-1] + math.Cos(float64(i))
	}
	return x, y
}

// TestModelCodecRoundTrip: every algorithm the fleet can deploy, and
// BL, must survive the model table's codec with bit-identical
// predictions — the contract snapshot persistence rests on — and
// re-encode to the same bytes, so no fitted state is dropped. The
// forest case keeps its out-of-bag estimate; the early-stopped booster
// has fewer stages than NEstimators.
func TestModelCodecRoundTrip(t *testing.T) {
	x, y := synthXY(80, 4)
	probes, _ := synthXY(300, 4)
	type codecCase struct {
		name  string
		model ml.Regressor
	}
	var cases []codecCase
	for _, alg := range core.TrainedAlgorithms() {
		model, err := core.Build(alg, core.DefaultParams(alg), 42)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, codecCase{string(alg), model})
	}
	bl, err := core.NewBaseline(18000, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	early := gbm.DefaultConfig()
	early.NEstimators, early.ValidationFraction, early.EarlyStoppingRounds = 500, 0.25, 3
	cases = append(cases,
		codecCase{"BL", bl},
		codecCase{"RF-OOB", forest.New(forest.Config{NEstimators: 12, MinSamplesLeaf: 2, Seed: 7, ComputeOOB: true})},
		codecCase{"XGB-early-stopped", gbm.New(early)},
	)

	for _, tc := range cases {
		name, model := tc.name, tc.model
		t.Run(name, func(t *testing.T) {
			if err := model.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			enc, err := model.(codecModel).AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			back := newModel(familyOf(model))
			if err := back.UnmarshalBinary(enc); err != nil {
				t.Fatal(err)
			}
			if reenc, err := back.AppendBinary(nil); err != nil || !bytes.Equal(reenc, enc) {
				t.Fatalf("decoded %s re-encodes differently (err %v)", name, err)
			}
			for i, probe := range probes {
				if want, got := model.Predict(probe), back.Predict(probe); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("probe %d: decoded %s predicts %v, want %v", i, name, got, want)
				}
			}
			switch m := model.(type) {
			case *forest.Model:
				want, _, wantErr := m.OOBMAE()
				got, _, gotErr := back.(*forest.Model).OOBMAE()
				if name == "RF-OOB" && (wantErr != nil || gotErr != nil || math.Float64bits(got) != math.Float64bits(want)) {
					t.Fatalf("out-of-bag MAE %v (%v), want %v (%v)", got, gotErr, want, wantErr)
				}
			case *gbm.Model:
				if name == "XGB-early-stopped" && m.TreeCount() >= early.NEstimators {
					t.Fatalf("booster ran all %d rounds; the case needs early stopping", m.TreeCount())
				}
				if got := back.(*gbm.Model).TreeCount(); got != m.TreeCount() {
					t.Fatalf("decoded booster has %d stages, want %d", got, m.TreeCount())
				}
			}
		})
	}
}

// testFleet builds a deterministic mixed-category fleet (same recipe
// as the engine tests).
func testFleet(t testing.TB) []engine.Vehicle {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	const allowance = 600_000
	mk := func(id string, days int, daily float64) engine.Vehicle {
		u := make(timeseries.Series, days)
		for i := range u {
			if i%7 >= 5 {
				u[i] = 0
			} else {
				u[i] = daily + float64((i*37+len(id)*13)%1000)
			}
		}
		vs, err := timeseries.Derive(id, u, allowance)
		if err != nil {
			t.Fatal(err)
		}
		return engine.Vehicle{Series: vs, Start: start}
	}
	return []engine.Vehicle{
		mk("v01", 400, 18000),
		mk("v02", 400, 21000),
		mk("v03", 400, 16000),
		mk("v04", 26, 18000),
		mk("v05", 10, 15000),
	}
}

func testConfig() core.PredictorConfig {
	cfg := core.DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []core.Algorithm{core.LR, core.LSVR}
	cfg.ColdStartAlgorithm = core.LR
	return cfg
}

// TestSnapshotRoundTrip: Save + Load preserves everything a serving
// shard needs — statuses, forecasts, model keys, pool hash — and the
// restored models predict.
func TestSnapshotRoundTrip(t *testing.T) {
	fleet := testFleet(t)
	eng, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}

	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("shard00", snap); err != nil {
		t.Fatal(err)
	}
	got, err := store.Load("shard00")
	if err != nil {
		t.Fatal(err)
	}

	if got.Generation != snap.Generation || got.PoolHash != snap.PoolHash {
		t.Fatalf("generation/poolhash %d/%x, want %d/%x", got.Generation, got.PoolHash, snap.Generation, snap.PoolHash)
	}
	if got.ConfigHash != snap.ConfigHash || got.PoolChanged != snap.PoolChanged || got.UnifiedReused != snap.UnifiedReused ||
		got.Reused != snap.Reused || got.Retrained != snap.Retrained || !got.BuiltAt.Equal(snap.BuiltAt) || got.TrainDuration != snap.TrainDuration {
		t.Errorf("restored build fields differ:\ngot  %+v\nwant %+v",
			[]any{got.ConfigHash, got.PoolChanged, got.UnifiedReused, got.Reused, got.Retrained, got.BuiltAt, got.TrainDuration},
			[]any{snap.ConfigHash, snap.PoolChanged, snap.UnifiedReused, snap.Reused, snap.Retrained, snap.BuiltAt, snap.TrainDuration})
	}
	// Sprint, not DeepEqual: cold-start statuses carry a NaN validation
	// score.
	if fmt.Sprint(got.Statuses) != fmt.Sprint(snap.Statuses) || fmt.Sprint(got.StatusByID) != fmt.Sprint(snap.StatusByID) {
		t.Errorf("statuses differ:\ngot  %v\nwant %v", got.Statuses, snap.Statuses)
	}
	if !reflect.DeepEqual(got.ForecastErrors, snap.ForecastErrors) || !reflect.DeepEqual(got.FailedVehicles, snap.FailedVehicles) {
		t.Errorf("forecast errors %v / failed %v, want %v / %v", got.ForecastErrors, got.FailedVehicles, snap.ForecastErrors, snap.FailedVehicles)
	}
	if len(got.Statuses) != len(snap.Statuses) || len(got.Forecasts) != len(snap.Forecasts) {
		t.Fatalf("restored %d statuses / %d forecasts, want %d / %d",
			len(got.Statuses), len(got.Forecasts), len(snap.Statuses), len(snap.Forecasts))
	}
	for i, f := range snap.Forecasts {
		g := got.Forecasts[i]
		if f.VehicleID != g.VehicleID || math.Float64bits(f.DaysLeft) != math.Float64bits(g.DaysLeft) ||
			!f.DueDate.Equal(g.DueDate) {
			t.Errorf("forecast %d differs: %+v vs %+v", i, f, g)
		}
	}
	if len(got.ModelKeys) != len(snap.ModelKeys) {
		t.Errorf("restored %d model keys, want %d", len(got.ModelKeys), len(snap.ModelKeys))
	}
	for id, key := range snap.ModelKeys {
		if got.ModelKeys[id] != key {
			t.Errorf("model key %s: %x, want %x", id, got.ModelKeys[id], key)
		}
	}
	for id := range snap.Models {
		if got.Models[id] == nil {
			t.Errorf("restored snapshot lost model for %s", id)
		}
	}
}

// TestRestoreThenIncrementalRetrain is the reboot contract: an engine
// restored from a spilled snapshot serves it immediately and the next
// retrain on unchanged telemetry reuses every vehicle (no
// cold-training); a tail day retrains nothing, and a change that adds
// labels to one vehicle retrains only that vehicle.
func TestRestoreThenIncrementalRetrain(t *testing.T) {
	fleet := testFleet(t)
	dir := t.TempDir()
	store, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}

	// "First boot": train and spill via the OnSnapshot hook.
	eng1, err := engine.New(engine.Config{
		Predictor: testConfig(),
		Workers:   2,
		OnSnapshot: func(snap *engine.Snapshot) {
			if err := store.Save("shard00", snap); err != nil {
				t.Errorf("spill: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := eng1.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}

	// "Reboot": a fresh engine restores the spill and serves it without
	// any training.
	restored, err := store.Load("shard00")
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Restore(restored, nil, false); err != nil {
		t.Fatal(err)
	}
	if snap := eng2.Snapshot(); snap == nil || len(snap.Forecasts) != len(snap1.Forecasts) {
		t.Fatal("restored engine does not serve the spilled generation")
	}

	// Unchanged telemetry: everything reuses against the restored model
	// keys.
	snap2, err := eng2.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Generation != snap1.Generation+1 {
		t.Errorf("post-restore generation %d, want %d", snap2.Generation, snap1.Generation+1)
	}
	if snap2.Retrained != 0 || snap2.Reused != len(fleet) {
		t.Errorf("post-restore retrain: reused=%d retrained=%d, want full reuse of %d", snap2.Reused, snap2.Retrained, len(fleet))
	}
	for i, f := range snap1.Forecasts {
		g := snap2.Forecasts[i]
		if math.Float64bits(f.DaysLeft) != math.Float64bits(g.DaysLeft) {
			t.Errorf("forecast %s drifted across restore: %v vs %v", f.VehicleID, f.DaysLeft, g.DaysLeft)
		}
	}

	// A tail day on an old vehicle adds no label: nothing retrains, the
	// restored model forecasts from the new day.
	changed := withExtraDay(t, fleet, 0)
	snap3, err := eng2.Retrain(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if snap3.Retrained != 0 || snap3.ForecastByID["v01"].AsOfDay != snap2.ForecastByID["v01"].AsOfDay+1 {
		t.Errorf("tail day: retrained=%d as-of %d, want 0 and day %d", snap3.Retrained, snap3.ForecastByID["v01"].AsOfDay, snap2.ForecastByID["v01"].AsOfDay+1)
	}
	assertEqualsFullRebuild(t, "tail day after restore", snap3, changed)

	// A backfill inside v01's second (complete) cycle changes its labelled
	// days but not the donors' first cycles: only v01 retrains.
	day := fleet[0].Series.Cycles[1].Start + 1
	vs, err := timeseries.Derive("v01", func() timeseries.Series {
		u := fleet[0].Series.U.Clone()
		u[day] += 500
		return u
	}(), fleet[0].Series.Allowance)
	if err != nil {
		t.Fatal(err)
	}
	changed = append([]engine.Vehicle(nil), fleet...)
	changed[0] = engine.Vehicle{Series: vs, Start: fleet[0].Start}
	snap4, err := eng2.Retrain(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if snap4.Retrained != 1 || snap4.Reused != len(fleet)-1 {
		t.Errorf("backfill retrain: reused=%d retrained=%d, want %d/1", snap4.Reused, snap4.Retrained, len(fleet)-1)
	}
	assertEqualsFullRebuild(t, "backfill after restore", snap4, changed)
}

// withExtraDay returns the fleet with one more day of telemetry on
// vehicle i.
func withExtraDay(t testing.TB, fleet []engine.Vehicle, i int) []engine.Vehicle {
	t.Helper()
	changed := append([]engine.Vehicle(nil), fleet...)
	vs, err := timeseries.Derive(fleet[i].Series.ID, append(fleet[i].Series.U.Clone(), 17500), fleet[i].Series.Allowance)
	if err != nil {
		t.Fatal(err)
	}
	changed[i] = engine.Vehicle{Series: vs, Start: fleet[i].Start}
	return changed
}

// spillAndRestore trains the fleet on one engine, spills it, and
// returns a second engine restored from the (optionally edited) spill.
func spillAndRestore(t *testing.T, fleet []engine.Vehicle, edit func(*engine.Snapshot)) *engine.Engine {
	t.Helper()
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng1, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng1.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("s", snap); err != nil {
		t.Fatal(err)
	}
	restored, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(restored)
	}
	eng2, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Restore(restored, nil, false); err != nil {
		t.Fatal(err)
	}
	return eng2
}

// assertEqualsFullRebuild checks a snapshot's forecasts bit for bit
// against a fresh engine's cold train of the same fleet.
func assertEqualsFullRebuild(t *testing.T, label string, got *engine.Snapshot, fleet []engine.Vehicle) {
	t.Helper()
	fresh, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Forecasts) != len(want.Forecasts) {
		t.Fatalf("%s: %d forecasts, full rebuild has %d", label, len(got.Forecasts), len(want.Forecasts))
	}
	for i, f := range want.Forecasts {
		g := got.Forecasts[i]
		if f.VehicleID != g.VehicleID || f.AsOfDay != g.AsOfDay || f.Strategy != g.Strategy ||
			math.Float64bits(f.DaysLeft) != math.Float64bits(g.DaysLeft) || !f.DueDate.Equal(g.DueDate) {
			t.Errorf("%s: forecast %s differs from a full rebuild:\ngot  %+v\nwant %+v", label, f.VehicleID, g, f)
		}
	}
}

// fnvWords is FNV-1a over little-endian 64-bit words and strings, the
// encoding core's keys use.
type fnvWords struct{ hash.Hash64 }

func (h fnvWords) word(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func (h fnvWords) str(s string) {
	h.word(uint64(len(s)))
	h.Write([]byte(s))
}

// legacyFingerprint is the whole-series hash older binaries keyed reuse
// on (core.Fingerprint before the model keys): ID, acquisition start,
// allowance and every day of U.
func legacyFingerprint(vs *timeseries.VehicleSeries, start time.Time) uint64 {
	h := fnvWords{fnv.New64a()}
	h.str(vs.ID)
	h.word(uint64(start.Unix()))
	h.word(math.Float64bits(vs.Allowance))
	h.word(uint64(len(vs.U)))
	for _, v := range vs.U {
		h.word(math.Float64bits(v))
	}
	return h.Sum64()
}

// legacyPoolHash is the donor-pool hash binaries before the
// first-cycle key spilled: FNV-1a over every old vehicle's ID and
// whole-series fingerprint, in ID order.
func legacyPoolHash(fleet []engine.Vehicle) uint64 {
	h := fnvWords{fnv.New64a()}
	for _, v := range fleet { // testFleet is in ID order
		if core.Categorize(v.Series) == core.Old {
			h.str(v.Series.ID)
			h.word(legacyFingerprint(v.Series, v.Start))
		}
	}
	return h.Sum64()
}

// TestRestoreSnapshotWithLegacyPoolHash: a restored snapshot whose
// pool key does not match the one this build computes for the same
// fleet — here the whole-series hash older builds used — is safe: the
// cold-start vehicles retrain once on the reconcile retrain — the old
// vehicles still reuse — the result equals a full rebuild, and the next
// clean retrain reuses everything against the new key.
func TestRestoreSnapshotWithLegacyPoolHash(t *testing.T) {
	fleet := testFleet(t)
	eng := spillAndRestore(t, fleet, func(snap *engine.Snapshot) {
		legacy := legacyPoolHash(fleet)
		if legacy == snap.PoolHash {
			t.Fatal("legacy hash equals the first-cycle key; the test would prove nothing")
		}
		snap.PoolHash = legacy
	})
	reconcile, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if reconcile.Retrained != 2 || reconcile.Reused != 3 || !reconcile.PoolChanged || reconcile.UnifiedReused {
		t.Errorf("reconcile after a legacy restore: reused=%d retrained=%d pool_changed=%v unified_reused=%v, want 3/2 (v04, v05), true, false",
			reconcile.Reused, reconcile.Retrained, reconcile.PoolChanged, reconcile.UnifiedReused)
	}
	assertEqualsFullRebuild(t, "reconcile after a legacy restore", reconcile, fleet)
	again, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if again.Retrained != 0 || again.PoolChanged {
		t.Errorf("second retrain after a legacy restore: retrained=%d pool_changed=%v, want a clean reuse", again.Retrained, again.PoolChanged)
	}
}

// TestRestoreSnapshotWithoutModelKeys: a restored snapshot that
// carries no model keys is safe: no key matches, so every vehicle
// retrains once on the reconcile retrain (the intact pool key still
// hands the unified model over), the result equals a full rebuild, and
// the next clean retrain fits nothing.
func TestRestoreSnapshotWithoutModelKeys(t *testing.T) {
	fleet := testFleet(t)
	eng := spillAndRestore(t, fleet, func(snap *engine.Snapshot) { snap.ModelKeys = nil })
	reconcile, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if reconcile.Retrained != len(fleet) || reconcile.PoolChanged || !reconcile.UnifiedReused {
		t.Errorf("reconcile after a keyless restore: retrained=%d pool_changed=%v unified_reused=%v, want %d/false/true",
			reconcile.Retrained, reconcile.PoolChanged, reconcile.UnifiedReused, len(fleet))
	}
	assertEqualsFullRebuild(t, "reconcile after a keyless restore", reconcile, fleet)
	again, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if again.Retrained != 0 {
		t.Errorf("second retrain after a keyless restore: retrained=%d, want a clean reuse", again.Retrained)
	}
}

// TestRestoredUnifiedModelIsCarriedForward: a snapshot spilled by this
// binary restores to a clean reconcile (nothing retrains), and the
// vehicles the unified model serves share one decoded model, which is
// carried forward as the unified: a new vehicle's report after the
// restore carries its model as is, and a new vehicle joining trains
// without a fit — both land on the full rebuild's forecasts.
func TestRestoredUnifiedModelIsCarriedForward(t *testing.T) {
	newVehicle := func(id string, days int) engine.Vehicle {
		u := make(timeseries.Series, days)
		for i := range u {
			u[i] = 15000
		}
		vs, err := timeseries.Derive(id, u, 600_000)
		if err != nil {
			t.Fatal(err)
		}
		return engine.Vehicle{Series: vs, Start: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)}
	}
	fleet := append(testFleet(t), newVehicle("v06", 9)) // v05 and v06 are new
	eng := spillAndRestore(t, fleet, nil)
	restored := eng.Snapshot()
	if restored.StatusByID["v05"].Strategy != "unified" || restored.StatusByID["v06"].Strategy != "unified" {
		t.Fatalf("v05/v06 strategies %q/%q, want both unified", restored.StatusByID["v05"].Strategy, restored.StatusByID["v06"].Strategy)
	}
	if restored.Models["v05"] == nil || restored.Models["v05"] != restored.Models["v06"] {
		t.Fatal("the new vehicles do not share one unified model after Load")
	}
	reconcile, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if reconcile.Retrained != 0 || reconcile.PoolChanged {
		t.Fatalf("clean reconcile: retrained=%d pool_changed=%v, want 0/false", reconcile.Retrained, reconcile.PoolChanged)
	}
	changed := withExtraDay(t, fleet, 4) // v05 is new: served by the unified model
	snap, err := eng.Retrain(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Retrained != 0 || snap.Models["v05"] != reconcile.Models["v05"] {
		t.Errorf("new vehicle's report after restore: retrained=%d, want 0 and the restored model", snap.Retrained)
	}
	assertEqualsFullRebuild(t, "new vehicle's report after restore", snap, changed)

	joined := append(changed, newVehicle("v07", 8))
	snap, err = eng.Retrain(context.Background(), joined)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Retrained != 1 || !snap.UnifiedReused {
		t.Errorf("new vehicle joining after restore: retrained=%d unified_reused=%v, want 1/true", snap.Retrained, snap.UnifiedReused)
	}
	if snap.Models["v07"] != reconcile.Models["v05"] {
		t.Error("the restored unified model was refitted instead of carried forward")
	}
	assertEqualsFullRebuild(t, "new vehicle joining after restore", snap, joined)
}

// TestRestoreRejectsChangedConfig: a spill from a different predictor
// configuration must not restore — key-based reuse cannot see a config
// change, so serving it would silently mix configurations.
func TestRestoreRejectsChangedConfig(t *testing.T) {
	fleet := testFleet(t)
	eng1, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng1.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("s", snap); err != nil {
		t.Fatal(err)
	}
	restored, err := store.Load("s")
	if err != nil {
		t.Fatal(err)
	}

	changed := testConfig()
	changed.Window = 5 // a window change invalidates every model
	eng2, err := engine.New(engine.Config{Predictor: changed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Restore(restored, nil, false); err == nil {
		t.Fatal("snapshot from a different predictor config restored")
	}
	if eng2.Snapshot() != nil {
		t.Fatal("rejected restore still installed a snapshot")
	}

	// The unchanged config still restores.
	eng3, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng3.Restore(restored, nil, false); err != nil {
		t.Fatalf("same-config restore rejected: %v", err)
	}
}

// TestLoadErrors covers the failure surface: missing file, wrong
// shard, corrupt header, bad names.
func TestLoadErrors(t *testing.T) {
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("nothere"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing spill: err = %v, want ErrNotExist", err)
	}
	if _, err := store.Load("../escape"); err == nil {
		t.Error("path-escaping shard name accepted")
	}
	if err := store.Save("", nil); err == nil {
		t.Error("nil snapshot accepted")
	}

	// A spill loaded under the wrong shard name is rejected.
	fleet := testFleet(t)
	eng, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet[:3])
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("a", snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(store.Dir() + "/a.snap")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Dir()+"/b.snap", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("b"); err == nil {
		t.Error("spill copied across shard names accepted")
	}

	// Corrupt magic.
	if err := os.WriteFile(store.Dir()+"/c.snap", []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("c"); err == nil {
		t.Error("corrupt file accepted")
	}
}

// spill trains the test fleet and saves it under the shard name,
// returning the store.
func spill(t testing.TB, shard string) *Store {
	t.Helper()
	eng, err := engine.New(engine.Config{Predictor: testConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), testFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(shard, snap); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestLoadRefusesFlippedBit: one flipped bit anywhere past the version
// — in a row, a model or the checksum itself — fails the CRC-32C.
func TestLoadRefusesFlippedBit(t *testing.T) {
	store := spill(t, "s")
	path := filepath.Join(store.Dir(), "s.snap")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{headSize + 3, len(good) / 2, len(good) - crcSize - 1, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load("s"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("bit flipped at byte %d of %d: err = %v, want a checksum mismatch", at, len(good), err)
		}
	}
}

// TestLoadRefusesVersion1: a spill of the gob-based version 1 format
// (testdata/version1.snap, written by that format's encoder) is refused
// with the version error, which the fleetserver answers with a cold
// train.
func TestLoadRefusesVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "version1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "shard00.snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("shard00"); !errors.Is(err, errVersion) {
		t.Fatalf("version 1 spill: err = %v, want the unsupported-version error", err)
	}
}

// TestNewRemovesStaleTempFiles: a Save killed before its deferred
// remove leaves <shard>.snap.tmp*; New deletes such files and leaves
// the spills themselves and unrelated files alone.
func TestNewRemovesStaleTempFiles(t *testing.T) {
	store := spill(t, "s")
	dir := store.Dir()
	path := filepath.Join(dir, "s.snap")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := []string{"s.snap.tmp123", "shard01.snap.tmp9"}
	for _, name := range append(stale, "notes.txt") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half a spill"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp file %s survived New: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Errorf("unrelated file removed: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
		t.Fatalf("spill changed by New (err %v)", err)
	}
	if _, err := reopened.Load("s"); err != nil {
		t.Fatalf("spill no longer loads: %v", err)
	}
}
