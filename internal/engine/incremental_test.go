package engine

import (
	"context"
	"fmt"
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

// completeCycle extends v with daily usage up to the day that completes
// its trailing maintenance cycle: before is v one day short of it,
// after is v on that day — the one report that adds labels.
func completeCycle(t testing.TB, v Vehicle, daily float64) (before, after Vehicle) {
	t.Helper()
	done := len(v.Series.CompleteCycles())
	u := v.Series.U.Clone()
	for {
		u = append(u, daily)
		vs, err := timeseries.Derive(v.Series.ID, u, v.Series.Allowance)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs.CompleteCycles()) > done {
			prev := rederive(t, v, v.Series.Allowance, func(timeseries.Series) timeseries.Series { return u[:len(u)-1] })
			return prev, Vehicle{Series: vs, Start: v.Start}
		}
	}
}

// TestIncrementalRetrainsDirtyOldVehicle pins the dependency rule of
// incremental retrains edge by edge:
//
//	old      <- its labelled prefix (the days up to its last maintenance)
//	semi-new <- its own series through the donor pick + donors' first cycles
//	new      <- donors' first cycles
//
// A report that adds no label — a tail day, a backfill inside the
// trailing cycle, any day on a new vehicle — fits nothing and only moves
// the forecast. The day that completes a cycle, a backfill inside a
// completed one, a changed allowance or a flipped donor retrain their
// vehicle; what changes the donors' first cycles — a backfill inside
// one, a donor joining or leaving, a changed allowance — also retrains
// every cold-start vehicle. Every row must equal a fresh full rebuild.
func TestIncrementalRetrainsDirtyOldVehicle(t *testing.T) {
	const allowance = 600_000
	cfg := fastPredictorConfig()
	v01Done := func(t *testing.T) (before, after Vehicle) { return completeCycle(t, mixedFleet(t)[0], 18000) }
	v04Done := func(t *testing.T) (before, after Vehicle) { return completeCycle(t, mixedFleet(t)[3], 18000) }
	asOfAdvanced := func(id string) func(*testing.T, *Snapshot, *Snapshot) {
		return func(t *testing.T, first, second *Snapshot) {
			if got, want := second.ForecastByID[id].AsOfDay, first.ForecastByID[id].AsOfDay+1; got != want {
				t.Errorf("%s forecast as of day %d, want %d", id, got, want)
			}
		}
	}
	rows := []struct {
		name string
		// base edits the fleet of the first build (nil: mixedFleet as is);
		// mutate turns it into the fleet of the second.
		base, mutate func(t *testing.T, fleet []Vehicle) []Vehicle
		// retrained lists the vehicles that must train; everything else
		// must carry its model forward pointer-equal.
		retrained                []string
		fits                     uint64
		ownData, poolChanged     uint64
		poolMoved, unifiedReused bool
		check                    func(t *testing.T, first, second *Snapshot)
	}{
		{
			name: "old vehicle tail append",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[0] = perturb(t, f[0])
				return f
			},
			unifiedReused: true, check: asOfAdvanced("v01"),
		},
		{
			name: "day that completes an old vehicle's cycle",
			base: func(t *testing.T, f []Vehicle) []Vehicle {
				f[0], _ = v01Done(t)
				return f
			},
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				_, f[0] = v01Done(t)
				return f
			},
			retrained: []string{"v01"}, fits: 1, ownData: 1, unifiedReused: true,
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
			retrained: []string{"v01", "v04", "v05"}, fits: 3, ownData: 1, poolChanged: 2, poolMoved: true,
		},
		{
			name: "backfill inside an old vehicle's later complete cycle",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				day := f[0].Series.Cycles[1].Start + 1
				f[0] = rederive(t, f[0], allowance, func(u timeseries.Series) timeseries.Series {
					u[day] += 500
					return u
				})
				return f
			},
			retrained: []string{"v01"}, fits: 1, ownData: 1, unifiedReused: true,
		},
		{
			name: "backfill inside an old vehicle's trailing cycle",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				vs := f[0].Series
				trailing := vs.Cycles[len(vs.Cycles)-1]
				if trailing.Complete || trailing.Days() < 2 {
					t.Fatalf("v01's trailing cycle %+v cannot take a backfill", trailing)
				}
				f[0] = rederive(t, f[0], allowance, func(u timeseries.Series) timeseries.Series {
					u[trailing.Start] += 500
					return u
				})
				if len(f[0].Series.CompleteCycles()) != len(vs.CompleteCycles()) {
					t.Fatal("the backfill completed v01's trailing cycle")
				}
				return f
			},
			unifiedReused: true,
		},
		{
			name: "semi-new vehicle completes its first cycle and joins the pool",
			base: func(t *testing.T, f []Vehicle) []Vehicle {
				f[3], _ = v04Done(t)
				return f
			},
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				_, f[3] = v04Done(t)
				if got := core.Categorize(f[3].Series); got != core.Old {
					t.Fatalf("v04 is %s on the day its first cycle completes, want old", got)
				}
				return f
			},
			retrained: []string{"v04", "v05"}, fits: 2, ownData: 1, poolChanged: 1, poolMoved: true,
		},
		{
			name: "semi-new vehicle's donor flips",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				// v04 rewritten to v02's first days: v02 is now its nearest donor.
				f[3] = rederive(t, f[3], allowance, func(u timeseries.Series) timeseries.Series {
					return f[1].Series.U.Slice(0, len(u))
				})
				if got := core.Categorize(f[3].Series); got != core.SemiNew {
					t.Fatalf("v04 is %s after the rewrite, want semi-new", got)
				}
				return f
			},
			retrained: []string{"v04"}, fits: 1, ownData: 1, unifiedReused: true,
			check: func(t *testing.T, first, second *Snapshot) {
				if before, after := first.StatusByID["v04"].Donor, second.StatusByID["v04"].Donor; before == after || after != "v02" {
					t.Errorf("v04's donor %q -> %q, want a flip to v02", before, after)
				}
			},
		},
		{
			name: "donor removed",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				return append(f[:1:1], f[2:]...) // drop v02
			},
			retrained: []string{"v04", "v05"}, fits: 2, poolChanged: 2, poolMoved: true,
		},
		{
			name: "allowance changed",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[0] = rederive(t, f[0], allowance+50_000, func(u timeseries.Series) timeseries.Series { return u })
				return f
			},
			retrained: []string{"v01", "v04", "v05"}, fits: 3, ownData: 1, poolChanged: 2, poolMoved: true,
		},
		{
			name: "dirty new vehicle, pool unchanged",
			mutate: func(t *testing.T, f []Vehicle) []Vehicle {
				f[4] = perturb(t, f[4])
				return f
			},
			unifiedReused: true, check: asOfAdvanced("v05"),
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eng, err := New(Config{Predictor: cfg, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			base := mixedFleet(t)
			if row.base != nil {
				base = row.base(t, base)
			}
			first, err := eng.Retrain(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			fits := func() (n uint64) {
				for _, alg := range []core.Algorithm{core.LR, core.LSVR} {
					n += eng.metrics.models.With(string(alg), "fit").Count()
				}
				return n
			}
			fits0 := fits()
			own := eng.metrics.retrains.CounterWith(core.ReasonOwnData).Value()
			pool := eng.metrics.retrains.CounterWith(core.ReasonPoolChanged).Value()

			fleet := row.mutate(t, append([]Vehicle(nil), base...))
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
				if kept := m == first.Models[id]; trains[id] == kept {
					t.Errorf("vehicle %s: model carried forward = %v, want %v", id, kept, !trains[id])
				}
			}
			if got := fits() - fits0; got != row.fits {
				t.Errorf("observed %d model fits, want %d", got, row.fits)
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
			if row.check != nil {
				row.check(t, first, second)
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
// vehicle outside the donor pool touches only that vehicle — and since a
// new vehicle's model is the shared unified one, which reads only the
// donors, not even it trains: the report costs a forecast.
func TestIncrementalRetrainsDirtyNewVehicleOnly(t *testing.T) {
	base := mixedFleet(t)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	dirty := append([]Vehicle(nil), base...)
	dirty[4] = perturb(t, base[4]) // v05 is new: not in the donor pool
	second, err := eng.Retrain(context.Background(), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if second.Reused != 5 || second.Retrained != 0 {
		t.Fatalf("reused=%d retrained=%d, want 5/0", second.Reused, second.Retrained)
	}
	if second.Models["v05"] != first.Models["v05"] {
		t.Error("v05's unified model was not carried forward")
	}
	if got, want := second.ForecastByID["v05"].AsOfDay, first.ForecastByID["v05"].AsOfDay+1; got != want {
		t.Fatalf("v05 forecast as of day %d, want %d", got, want)
	}
}

// TestFirstMaintenanceKeepsForecast follows one vehicle day by day from
// its semi-new phase across its first maintenance and through its whole
// second cycle. Its first cycle is long (110 days), so every D̃ day of
// its labelled prefix lies after the 70 % selection cut: the candidate
// competition must fall back to unrestricted training rows rather than
// fail. Every day it has a forecast, every generation equals a full
// rebuild, and only the two maintenance days fit anything.
func TestFirstMaintenanceKeepsForecast(t *testing.T) {
	cfg := fastPredictorConfig()
	u := make(timeseries.Series, 330)
	for i := range u {
		u[i] = 5500 // 600 000 s of allowance: cycles end on days 110 and 220
	}
	vehicle := func(days int) Vehicle {
		vs, err := timeseries.Derive("v06", u[:days], 600_000)
		if err != nil {
			t.Fatal(err)
		}
		return Vehicle{Series: vs, Start: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)}
	}
	eng, err := New(Config{Predictor: cfg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fleet := append(mixedFleet(t), vehicle(100))
	if got := core.Categorize(fleet[5].Series); got != core.SemiNew {
		t.Fatalf("v06 starts %s, want semi-new", got)
	}
	if _, err := eng.Retrain(context.Background(), fleet); err != nil {
		t.Fatal(err)
	}
	for days := 101; days <= 225; days++ {
		fleet[5] = vehicle(days)
		snap, err := eng.Retrain(context.Background(), fleet)
		if err != nil {
			t.Fatal(err)
		}
		if msg, failed := snap.ForecastErrors["v06"]; failed {
			t.Fatalf("day %d (%s): v06 has no forecast: %s", days, core.Categorize(fleet[5].Series), msg)
		}
		want := 0
		switch days {
		case 110: // first maintenance: v06 joins the pool, so v04 and v05 retrain too
			want = 3
		case 220:
			want = 1
		}
		if snap.Retrained != want {
			t.Errorf("day %d: retrained %d vehicles, want %d", days, snap.Retrained, want)
		}
		full, err := New(Config{Predictor: cfg, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := full.Retrain(context.Background(), fleet)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("day %d", days), snap, ref)
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

// failingVehicle is an old vehicle whose one complete cycle is five days
// long, so the 70/30 selection split of its labelled prefix falls at day
// 3 — no later than the feature window — and candidate evaluation
// deterministically fails. Its trailing days add no labels, so it stays
// failed whatever it reports.
func failingVehicle(t testing.TB) Vehicle {
	t.Helper()
	u := make(timeseries.Series, 40)
	for i := 0; i < 5; i++ {
		u[i] = 22000 // completes the 100k cycle on day 4
	}
	for i := 5; i < 40; i++ {
		u[i] = 100 // trailing incomplete cycle: unknown targets only
	}
	vs, err := timeseries.Derive("v99", u, 100_000)
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
	if !ok || st.Err == "" || !strings.Contains(st.Err, "leaves no usable side") {
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

	// So does a report that adds no label: the failure is a function of
	// the labelled prefix, like any old vehicle's model.
	fleet[len(fleet)-1] = perturb(t, fleet[len(fleet)-1])
	tail, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Retrained != 0 || tail.FailedVehicles["v99"] != st.Err {
		t.Fatalf("tail day on the failing vehicle: retrained=%d failed=%v, want 0 and the carried failure", tail.Retrained, tail.FailedVehicles)
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
