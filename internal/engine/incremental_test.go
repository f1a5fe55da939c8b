package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/timeseries"
)

// mixedFleet builds a deterministic fleet covering every category:
// three old vehicles (several complete cycles), one semi-new (past half
// of its first cycle) and one new (barely any history).
func mixedFleet(t testing.TB) []Vehicle {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	const allowance = 600_000

	mk := func(id string, days int, daily float64) Vehicle {
		u := make(timeseries.Series, days)
		for i := range u {
			if i%7 >= 5 {
				u[i] = 0
			} else {
				// Deterministic per-day jitter keeps vehicles distinct
				// without an rng dependency.
				u[i] = daily + float64((i*37+len(id)*13)%1000)
			}
		}
		vs, err := timeseries.Derive(id, u, allowance)
		if err != nil {
			t.Fatal(err)
		}
		return Vehicle{Series: vs, Start: start}
	}
	return []Vehicle{
		mk("v01", 400, 18000), // old
		mk("v02", 400, 21000), // old
		mk("v03", 400, 16000), // old
		mk("v04", 26, 18000),  // semi-new: ~360k of 600k used, no complete cycle
		mk("v05", 10, 15000),  // new: ~110k used
	}
}

// perturb returns a copy of the vehicle with one appended day,
// re-derived so all series stay consistent — the minimal "new
// telemetry arrived" event.
func perturb(t testing.TB, v Vehicle) Vehicle {
	t.Helper()
	return rederive(t, v, v.Series.Allowance, func(u timeseries.Series) timeseries.Series { return append(u, 17500) })
}

func sameStatus(a, b core.VehicleStatus) bool {
	return a.ID == b.ID && a.Category == b.Category && a.Strategy == b.Strategy &&
		a.Algorithm == b.Algorithm && a.Donor == b.Donor && a.Err == b.Err &&
		sameFloat(a.ValidationMRE, b.ValidationMRE)
}

func sameForecast(a, b core.Forecast) bool {
	return a.VehicleID == b.VehicleID && a.AsOfDay == b.AsOfDay &&
		sameFloat(a.DaysLeft, b.DaysLeft) && a.DueDate.Equal(b.DueDate) &&
		a.Category == b.Category && a.Strategy == b.Strategy
}

// assertSameResults checks the bit-identical contract between two
// snapshots: same statuses, same forecasts, same forecast errors.
func assertSameResults(t *testing.T, label string, a, b *Snapshot) {
	t.Helper()
	if len(a.Statuses) != len(b.Statuses) {
		t.Fatalf("%s: status counts %d vs %d", label, len(a.Statuses), len(b.Statuses))
	}
	for i := range a.Statuses {
		if !sameStatus(a.Statuses[i], b.Statuses[i]) {
			t.Errorf("%s: status %d differs:\na %+v\nb %+v", label, i, a.Statuses[i], b.Statuses[i])
		}
	}
	if len(a.Forecasts) != len(b.Forecasts) {
		t.Fatalf("%s: forecast counts %d vs %d", label, len(a.Forecasts), len(b.Forecasts))
	}
	for i := range a.Forecasts {
		if !sameForecast(a.Forecasts[i], b.Forecasts[i]) {
			t.Errorf("%s: forecast %d differs:\na %+v\nb %+v", label, i, a.Forecasts[i], b.Forecasts[i])
		}
	}
	for id, msg := range a.ForecastErrors {
		if b.ForecastErrors[id] != msg {
			t.Errorf("%s: forecast error %s: %q vs %q", label, id, msg, b.ForecastErrors[id])
		}
	}
}

// TestIncrementalReuseCleanFleet: retraining on unchanged telemetry
// reuses every vehicle — models pointer-equal to the previous
// generation — and serves identical results.
func TestIncrementalReuseCleanFleet(t *testing.T) {
	fleet := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused != 0 || first.Retrained != len(fleet) {
		t.Fatalf("first build reused=%d retrained=%d", first.Reused, first.Retrained)
	}
	second, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != len(fleet) || second.Retrained != 0 {
		t.Fatalf("clean retrain reused=%d retrained=%d, want %d/0", second.Reused, second.Retrained, len(fleet))
	}
	for id, m := range first.Models {
		if second.Models[id] != m {
			t.Errorf("vehicle %s model not pointer-equal across clean retrain", id)
		}
	}
	assertSameResults(t, "clean retrain", first, second)
	if st := eng.Status(); st.Reused != len(fleet) || st.Retrained != 0 {
		t.Fatalf("status reused=%d retrained=%d", st.Reused, st.Retrained)
	}
}

// rederive rebuilds a vehicle from an edited copy of its utilization
// series (and, optionally, another allowance), so all derived series
// stay consistent.
func rederive(t testing.TB, v Vehicle, allowance float64, edit func(u timeseries.Series) timeseries.Series) Vehicle {
	t.Helper()
	vs, err := timeseries.Derive(v.Series.ID, edit(v.Series.U.Clone()), allowance)
	if err != nil {
		t.Fatal(err)
	}
	return Vehicle{Series: vs, Start: v.Start}
}

// TestIncrementalRetrainsDirtyOldVehicle pins the dependency rule of
// incremental retrains (old <- own series; semi-new <- own series +
// donors' first cycles; new <- donors' first cycles) edge by edge: a
// day appended to an old vehicle's tail retrains that vehicle alone,
// and exactly the events that can change what cold-start training reads
// — a rewritten day inside a donor's first cycle, a donor joining or
// leaving, a changed allowance — retrain every cold-start vehicle.
// Every row must equal a fresh full rebuild of the same fleet.
func TestIncrementalRetrainsDirtyOldVehicle(t *testing.T) {
	const allowance = 600_000
	cfg := fastPredictorConfig()
	rows := []struct {
		name   string
		mutate func(t *testing.T, fleet []Vehicle) []Vehicle
		// retrained lists the vehicles that must train; everything else
		// must carry its model forward pointer-equal.
		retrained                []string
		ownData, poolChanged     uint64
		poolMoved, unifiedReused bool
		// unifiedKept: v05's model (the unified one) is the prior
		// generation's even though v05 itself trained.
		unifiedKept bool
	}{
		{
			name: "old vehicle tail append",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[0] = perturb(t, f[0])
				return f
			},
			retrained: []string{"v01"}, ownData: 1, unifiedReused: true,
		},
		{
			name: "backfill inside an old vehicle's first cycle",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[0] = rederive(t, f[0], allowance, func(u timeseries.Series) timeseries.Series {
					u[3] += 500
					return u
				})
				return f
			},
			retrained: []string{"v01", "v04", "v05"}, ownData: 1, poolChanged: 2, poolMoved: true,
		},
		{
			name: "semi-new vehicle completes its first cycle and joins the pool",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[3] = rederive(t, f[3], allowance, func(u timeseries.Series) timeseries.Series {
					for i := 0; i < 30; i++ {
						u = append(u, 18000)
					}
					return u
				})
				if got := core.Categorize(f[3].Series); got != core.Old {
					t.Fatalf("v04 is %s after 30 more days, want old", got)
				}
				return f
			},
			retrained: []string{"v04", "v05"}, ownData: 1, poolChanged: 1, poolMoved: true,
		},
		{
			name: "donor removed",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				return append(f[:1:1], f[2:]...) // drop v02
			},
			retrained: []string{"v04", "v05"}, poolChanged: 2, poolMoved: true,
		},
		{
			name: "allowance changed",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[0] = rederive(t, f[0], allowance+50_000, func(u timeseries.Series) timeseries.Series { return u })
				return f
			},
			retrained: []string{"v01", "v04", "v05"}, ownData: 1, poolChanged: 2, poolMoved: true,
		},
		{
			name: "dirty new vehicle, pool unchanged",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[4] = perturb(t, f[4])
				return f
			},
			retrained: []string{"v05"}, ownData: 1, unifiedReused: true, unifiedKept: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eng, err := New(Config{Predictor: cfg, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			first, err := eng.Retrain(context.Background(), mixedFleet(t))
			if err != nil {
				t.Fatal(err)
			}
			coldFits := eng.metrics.models.With(string(cfg.ColdStartAlgorithm), "fit").Count()
			own := eng.metrics.retrains.CounterWith(core.ReasonOwnData).Value()
			pool := eng.metrics.retrains.CounterWith(core.ReasonPoolChanged).Value()

			fleet := row.mutate(t, mixedFleet(t))
			second, err := eng.Retrain(context.Background(), fleet)
			if err != nil {
				t.Fatal(err)
			}
			if second.Retrained != len(row.retrained) || second.Reused != len(fleet)-len(row.retrained) {
				t.Fatalf("reused=%d retrained=%d, want %d/%d", second.Reused, second.Retrained, len(fleet)-len(row.retrained), len(row.retrained))
			}
			trains := make(map[string]bool)
			for _, id := range row.retrained {
				trains[id] = true
			}
			for id, m := range second.Models {
				kept := m == first.Models[id]
				switch {
				case id == "v05" && row.unifiedKept:
					if !kept {
						t.Error("unified model was refitted although the donor pool is unchanged")
					}
				case trains[id] == kept:
					t.Errorf("vehicle %s: model carried forward = %v, want %v", id, kept, !trains[id])
				}
			}
			if second.PoolChanged != row.poolMoved || second.UnifiedReused != row.unifiedReused {
				t.Errorf("pool_changed=%v unified_reused=%v, want %v/%v", second.PoolChanged, second.UnifiedReused, row.poolMoved, row.unifiedReused)
			}
			if st := eng.Status(); st.PoolChanged != row.poolMoved || st.UnifiedReused != row.unifiedReused {
				t.Errorf("status pool_changed=%v unified_reused=%v, want %v/%v", st.PoolChanged, st.UnifiedReused, row.poolMoved, row.unifiedReused)
			}
			if got := eng.metrics.retrains.CounterWith(core.ReasonOwnData).Value() - own; got != row.ownData {
				t.Errorf("reason own_data counted %d vehicles, want %d", got, row.ownData)
			}
			if got := eng.metrics.retrains.CounterWith(core.ReasonPoolChanged).Value() - pool; got != row.poolChanged {
				t.Errorf("reason pool_changed counted %d vehicles, want %d", got, row.poolChanged)
			}
			if row.unifiedKept {
				if got := eng.metrics.models.With(string(cfg.ColdStartAlgorithm), "fit").Count(); got != coldFits {
					t.Errorf("observed %d %s fits for a dirty new vehicle, want none", got-coldFits, cfg.ColdStartAlgorithm)
				}
			}

			fresh, err := New(Config{Predictor: cfg, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			full, err := fresh.Retrain(context.Background(), fleet)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, "incremental vs full", second, full)
		})
	}
}

// TestIncrementalRetrainsDirtyNewVehicleOnly: new telemetry for a
// vehicle outside the donor pool retrains only that vehicle — the
// O(changed vehicles) contract in its purest form.
func TestIncrementalRetrainsDirtyNewVehicleOnly(t *testing.T) {
	base := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Retrain(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	dirty := append([]Vehicle(nil), base...)
	dirty[4] = perturb(t, base[4]) // v05 is new: not in the donor pool
	second, err := eng.Retrain(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != 4 || second.Retrained != 1 {
		t.Fatalf("reused=%d retrained=%d, want 4/1", second.Reused, second.Retrained)
	}
	if _, ok := second.StatusByID["v05"]; !ok {
		t.Fatal("v05 missing from snapshot")
	}
}

// TestRetrainFullEscapeHatch: RetrainFull ignores the previous
// generation — everything retrains — yet produces identical results,
// because reuse is exact by construction.
func TestRetrainFullEscapeHatch(t *testing.T) {
	fleet := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	full, err := eng.RetrainFull(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if full.Reused != 0 || full.Retrained != len(fleet) {
		t.Fatalf("full rebuild reused=%d retrained=%d", full.Reused, full.Retrained)
	}
	assertSameResults(t, "full vs first", first, full)
	for id, m := range first.Models {
		if full.Models[id] == m {
			t.Errorf("full rebuild reused vehicle %s's model pointer", id)
		}
	}
}

// failingVehicle is an old vehicle (one complete cycle) whose entire
// post-split tail lies in the trailing incomplete cycle, so candidate
// evaluation deterministically fails with "no test records".
func failingVehicle(t testing.TB) Vehicle {
	t.Helper()
	u := make(timeseries.Series, 40)
	for i := 0; i < 28; i++ {
		u[i] = 22000 // completes the 600k cycle on day 27
	}
	for i := 28; i < 40; i++ {
		u[i] = 100 // trailing incomplete cycle: unknown targets only
	}
	vs, err := timeseries.Derive("v99", u, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Categorize(vs); got != core.Old {
		t.Fatalf("failing vehicle categorized %s, want old", got)
	}
	return Vehicle{Series: vs, Start: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// TestPerVehicleFailureTolerance: one vehicle failing training no
// longer aborts the fleet build — the snapshot serves the rest and
// reports the failure in the vehicle's status, the snapshot and the
// engine status.
func TestPerVehicleFailureTolerance(t *testing.T) {
	fleet := append(mixedFleet(t), failingVehicle(t))
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatalf("fleet build aborted by one failing vehicle: %v", err)
	}
	if len(snap.Statuses) != len(fleet) {
		t.Fatalf("snapshot has %d statuses for %d vehicles", len(snap.Statuses), len(fleet))
	}
	st, ok := snap.StatusByID["v99"]
	if !ok || st.Err == "" || !strings.Contains(st.Err, "no test records") {
		t.Fatalf("v99 status = %+v", st)
	}
	if msg, ok := snap.FailedVehicles["v99"]; !ok || msg != st.Err {
		t.Fatalf("FailedVehicles = %v", snap.FailedVehicles)
	}
	if _, ok := snap.ForecastByID["v99"]; ok {
		t.Fatal("failed vehicle has a forecast")
	}
	if _, ok := snap.ForecastErrors["v99"]; !ok {
		t.Fatal("failed vehicle missing from ForecastErrors")
	}
	if len(snap.Forecasts) != len(fleet)-1 {
		t.Fatalf("served %d forecasts, want %d", len(snap.Forecasts), len(fleet)-1)
	}
	if _, ok := snap.Models["v99"]; ok {
		t.Fatal("failed vehicle has a model")
	}
	est := eng.Status()
	if est.FailedVehicles["v99"] == "" {
		t.Fatalf("engine status failed_vehicles = %v", est.FailedVehicles)
	}

	// A clean retrain carries the deterministic failure forward instead
	// of re-failing it from scratch.
	again, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if again.Retrained != 0 || again.Reused != len(fleet) {
		t.Fatalf("reused=%d retrained=%d after clean retrain", again.Reused, again.Retrained)
	}
	if got := again.StatusByID["v99"]; got.Err != st.Err {
		t.Fatalf("carried failure %q, want %q", got.Err, st.Err)
	}
}

// TestAllVehiclesFailingAborts: failure tolerance degrades per
// vehicle, but a fleet with zero trainable vehicles still fails the
// build — there is nothing to serve.
func TestAllVehiclesFailingAborts(t *testing.T) {
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Retrain(context.Background(), []Vehicle{failingVehicle(t)}); err == nil {
		t.Fatal("all-failing fleet produced a snapshot")
	}
	if eng.Snapshot() != nil {
		t.Fatal("all-failing fleet published a snapshot")
	}
}
