package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/timeseries"
)

// donorFleet builds a deterministic mixed fleet: three old vehicles,
// one semi-new, one new — the categories whose training depends on the
// donor pool are what donor-only registration must keep invariant.
func donorFleet(t *testing.T) ([]*timeseries.VehicleSeries, time.Time) {
	t.Helper()
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	const allowance = 600_000
	mk := func(id string, days int, daily float64) *timeseries.VehicleSeries {
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
		return vs
	}
	return []*timeseries.VehicleSeries{
		mk("v01", 400, 18000), // old
		mk("v02", 400, 21000), // old
		mk("v03", 400, 16000), // old
		mk("v04", 26, 18000),  // semi-new
		mk("v05", 10, 15000),  // new
	}, start
}

func donorTestConfig() PredictorConfig {
	cfg := DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []Algorithm{LR}
	cfg.ColdStartAlgorithm = LR
	return cfg
}

// TestDonorOnlyPoolEquivalence is the sharding soundness contract: a
// predictor owning only a partition of the fleet, with the remaining
// old vehicles registered donor-only, must plan the same pool hash and
// train the partition's vehicles to bit-identical forecasts as a
// predictor owning the whole fleet.
func TestDonorOnlyPoolEquivalence(t *testing.T) {
	fleet, start := donorFleet(t)

	full, err := NewFleetPredictor(donorTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range fleet {
		if err := full.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}
	fullPlan, err := full.PlanTrainingWithReuse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Train(); err != nil {
		t.Fatal(err)
	}

	// The shard owns the cold-start vehicles plus one old vehicle; the
	// other two olds are donors from "elsewhere in the fleet".
	owned := map[string]bool{"v03": true, "v04": true, "v05": true}
	shard, err := NewFleetPredictor(donorTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, vs := range fleet {
		if owned[vs.ID] {
			err = shard.AddVehicle(vs, start)
		} else {
			err = shard.AddDonor(vs, start)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	shardPlan, err := shard.PlanTrainingWithReuse(nil)
	if err != nil {
		t.Fatal(err)
	}

	if shardPlan.PoolHash != fullPlan.PoolHash {
		t.Fatalf("pool hash %x differs from unsharded %x", shardPlan.PoolHash, fullPlan.PoolHash)
	}
	if got, want := len(shardPlan.Tasks), len(owned); got != want {
		t.Fatalf("shard plans %d tasks, want %d (owned only)", got, want)
	}
	for _, task := range shardPlan.Tasks {
		if !owned[task.Vehicle.ID] {
			t.Fatalf("shard plans donor-only vehicle %s", task.Vehicle.ID)
		}
	}
	if len(shardPlan.ModelKeys) != len(owned) {
		t.Fatalf("shard model keys cover %d vehicles, want %d", len(shardPlan.ModelKeys), len(owned))
	}
	for id, key := range shardPlan.ModelKeys {
		if want := fullPlan.ModelKeys[id]; key != want {
			t.Errorf("vehicle %s: shard model key %x differs from unsharded %x", id, key, want)
		}
	}

	if _, err := shard.Train(); err != nil {
		t.Fatal(err)
	}
	got, err := shard.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(owned) {
		t.Fatalf("shard forecasts %d vehicles, want %d", len(got), len(owned))
	}
	for _, f := range got {
		want, err := full.Predict(f.VehicleID)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(f.DaysLeft) != math.Float64bits(want.DaysLeft) ||
			!f.DueDate.Equal(want.DueDate) || f.Strategy != want.Strategy {
			t.Errorf("vehicle %s: sharded forecast %+v differs from unsharded %+v", f.VehicleID, f, want)
		}
	}

	// Donor-only vehicles are not servable on this shard.
	if _, err := shard.Predict("v01"); err == nil || !strings.Contains(err.Error(), "donor-only") {
		t.Errorf("Predict on donor-only vehicle: err = %v, want donor-only rejection", err)
	}
}

// TestDonorOnlyPoolKeyFollowsFirstCycles: the pool key reads only the
// donors' first cycles, and a shard (owned + donor-only) and the
// unsharded fleet agree on it through every kind of change: a day
// appended to a donor-only vehicle's tail moves neither key, a day
// rewritten inside its first cycle moves both to the same new value.
// They agree on every owned vehicle's model key too — the semi-new v04
// picks its donor from a pool the shard holds mostly donor-only.
func TestDonorOnlyPoolKeyFollowsFirstCycles(t *testing.T) {
	base, start := donorFleet(t)
	owned := map[string]bool{"v03": true, "v04": true, "v05": true}
	keys := func(fleet []*timeseries.VehicleSeries) (unsharded, shard uint64) {
		t.Helper()
		var out [2]uint64
		var modelKeys [2]map[string]uint64
		for i, sharded := range []bool{false, true} {
			fp, err := NewFleetPredictor(donorTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, vs := range fleet {
				if sharded && !owned[vs.ID] {
					err = fp.AddDonor(vs, start)
				} else {
					err = fp.AddVehicle(vs, start)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			plan, err := fp.PlanTrainingWithReuse(nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = plan.PoolHash
			modelKeys[i] = plan.ModelKeys
		}
		for id := range owned {
			if modelKeys[0][id] != modelKeys[1][id] {
				t.Errorf("vehicle %s: shard model key %x differs from unsharded %x", id, modelKeys[1][id], modelKeys[0][id])
			}
		}
		return out[0], out[1]
	}
	edit := func(f func(u timeseries.Series) timeseries.Series) []*timeseries.VehicleSeries {
		t.Helper()
		fleet := append([]*timeseries.VehicleSeries(nil), base...)
		vs, err := timeseries.Derive("v01", f(base[0].U.Clone()), base[0].Allowance) // v01 is donor-only on the shard
		if err != nil {
			t.Fatal(err)
		}
		fleet[0] = vs
		return fleet
	}

	want, shard := keys(base)
	if shard != want {
		t.Fatalf("shard key %x differs from unsharded %x", shard, want)
	}
	tailU, tailS := keys(edit(func(u timeseries.Series) timeseries.Series { return append(u, 17500) }))
	if tailU != want || tailS != want {
		t.Errorf("tail day on a donor moved the pool key: unsharded %x shard %x, want %x", tailU, tailS, want)
	}
	backU, backS := keys(edit(func(u timeseries.Series) timeseries.Series { u[5] += 250; return u }))
	if backU == want || backS != backU {
		t.Errorf("first-cycle backfill: unsharded key %x shard key %x (before: %x), want both moved to one value", backU, backS, want)
	}
}

// TestDonorOnlyReuse: a shard retraining on unchanged telemetry reuses
// its owned vehicles even though the donor pool is registered on a
// fresh predictor each build.
func TestDonorOnlyReuse(t *testing.T) {
	fleet, start := donorFleet(t)
	owned := map[string]bool{"v04": true, "v05": true}

	build := func(prior *PriorGeneration) (*TrainPlan, *FleetPredictor) {
		fp, err := NewFleetPredictor(donorTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, vs := range fleet {
			if owned[vs.ID] {
				err = fp.AddVehicle(vs, start)
			} else {
				err = fp.AddDonor(vs, start)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		plan, err := fp.PlanTrainingWithReuse(prior)
		if err != nil {
			t.Fatal(err)
		}
		return plan, fp
	}

	plan1, _ := build(nil)
	if len(plan1.Tasks) != 2 {
		t.Fatalf("first build plans %d tasks, want 2", len(plan1.Tasks))
	}
	// Execute the first build's tasks and package the prior generation
	// the way internal/engine does from its snapshot.
	prior := &PriorGeneration{
		ModelKeys: plan1.ModelKeys,
		PoolHash:  plan1.PoolHash,
		Statuses:  make(map[string]VehicleStatus),
		Models:    make(map[string]ml.Regressor),
	}
	for _, task := range plan1.Tasks {
		st, model, err := TrainVehicle(task, plan1.Shared)
		if err != nil {
			t.Fatal(err)
		}
		prior.Statuses[st.ID] = st
		prior.Models[st.ID] = model
	}

	plan2, _ := build(prior)
	if len(plan2.Tasks) != 0 {
		t.Fatalf("second build plans %d tasks, want 0 (all reused)", len(plan2.Tasks))
	}
	if len(plan2.Reused) != 2 {
		t.Fatalf("second build reuses %d vehicles, want 2", len(plan2.Reused))
	}
}
