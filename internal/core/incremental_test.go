package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// builtGeneration is one executed plan: what internal/engine would
// freeze into a snapshot, reduced to what the next plan and the
// equality check need.
type builtGeneration struct {
	plan     *TrainPlan
	prior    *PriorGeneration // this generation, as the next plan's prior
	forecast map[string]string
}

// buildGeneration registers the fleet on a fresh predictor, plans
// against prior, trains the planned tasks (a failing vehicle keeps its
// error as its status, as in the engine) and forecasts every vehicle.
func buildGeneration(t *testing.T, cfg PredictorConfig, fleet []*timeseries.VehicleSeries, prior *PriorGeneration) builtGeneration {
	t.Helper()
	fp, err := NewFleetPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, vs := range fleet {
		if err := fp.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := fp.PlanTrainingWithReuse(prior)
	if err != nil {
		t.Fatal(err)
	}
	next := &PriorGeneration{
		ModelKeys: plan.ModelKeys,
		PoolHash:  plan.PoolHash,
		Statuses:  make(map[string]VehicleStatus),
		Models:    plan.ReusedModels,
	}
	var statuses []VehicleStatus
	for _, st := range plan.Reused {
		statuses = append(statuses, st)
	}
	for _, task := range plan.Tasks {
		st, model, err := TrainVehicle(task, plan.Shared)
		if err != nil {
			st = VehicleStatus{ID: task.Vehicle.ID, Category: task.Category, Err: err.Error()}
		} else {
			next.Models[st.ID] = model
		}
		statuses = append(statuses, st)
	}
	for _, st := range statuses {
		next.Statuses[st.ID] = st
	}
	if err := fp.InstallTrained(statuses, next.Models); err != nil {
		t.Fatal(err)
	}
	out := builtGeneration{plan: plan, prior: next, forecast: make(map[string]string)}
	for _, st := range statuses {
		f, err := fp.Predict(st.ID)
		if err != nil {
			out.forecast[st.ID] = "error: " + err.Error()
			continue
		}
		out.forecast[st.ID] = fmt.Sprintf("%s/%s/%s/%s donor=%q mre=%x as-of=%d days=%x",
			st.Category, st.Strategy, st.Algorithm, f.DueDate.Format("2006-01-02"), st.Donor,
			math.Float64bits(st.ValidationMRE), f.AsOfDay, math.Float64bits(f.DaysLeft))
	}
	return out
}

// TestIncrementalReplayMatchesFullRebuild replays seeded random
// sequences of the events a live fleet sees — a day appended to a tail,
// a day rewritten anywhere (inside a first cycle or after it), a vehicle
// joining or leaving — and checks after every step that the incremental
// generation, planned against the previous one, is bit-identical to a
// full rebuild of the same fleet. Vehicles drift through the
// categories on the way (new -> semi-new -> old joins the donor pool).
// A tail day must additionally cost exactly the tasks its model keys
// ask for (tailDayTasks): none unless it completes a cycle, flips a
// donor or moves the vehicle out of the new category.
func TestIncrementalReplayMatchesFullRebuild(t *testing.T) {
	cfg := donorTestConfig()
	for _, seed := range []uint64{1, 20200330} {
		rnd := rng.New(seed)
		series := func(id string, days int) *timeseries.VehicleSeries {
			u := make(timeseries.Series, days)
			for d := range u {
				if d%7 < 5 {
					u[d] = math.Round(18000 * (1 + 0.2*rnd.Float64()))
				}
			}
			return mustDerive(t, id, u)
		}
		fleet := []*timeseries.VehicleSeries{
			series("v01", 300), series("v02", 260), series("v03", 220), // old
			series("v04", 30), series("v05", 25), // semi-new
			series("v06", 8), series("v07", 12), // new
		}
		joined := 0
		prev := buildGeneration(t, cfg, fleet, nil)
		for step := 0; step < 60; step++ {
			i := rnd.Intn(len(fleet))
			vs := fleet[i]
			event, wantTasks := "", -1
			switch k := rnd.Intn(10); {
			case k < 5:
				event = "tail day on " + vs.ID
				fleet[i] = mustDerive(t, vs.ID, append(vs.U.Clone(), math.Round(20000*rnd.Float64())))
				wantTasks = tailDayTasks(vs, fleet[i], fleet)
			case k < 8:
				u := vs.U.Clone()
				d := rnd.Intn(len(u))
				if first := vs.Cycles[0]; rnd.Bernoulli(0.5) {
					d = rnd.Intn(first.End) // inside the first cycle, complete or not
				}
				event = fmt.Sprintf("day %d of %s rewritten", d, vs.ID)
				u[d] = math.Round(20000 * rnd.Float64())
				fleet[i] = mustDerive(t, vs.ID, u)
			case k < 9:
				joined++
				id := fmt.Sprintf("w%02d", joined)
				event = id + " joins"
				fleet = append(fleet, series(id, []int{6, 28, 200}[rnd.Intn(3)]))
			default:
				if len(fleet) <= 4 {
					continue
				}
				event = vs.ID + " leaves"
				fleet = append(fleet[:i:i], fleet[i+1:]...)
			}
			inc := buildGeneration(t, cfg, fleet, prev.prior)
			full := buildGeneration(t, cfg, fleet, nil)
			if inc.plan.PoolHash != full.plan.PoolHash {
				t.Fatalf("seed %d step %d (%s): pool key differs between incremental and full plan", seed, step, event)
			}
			for id, key := range full.plan.ModelKeys {
				if inc.plan.ModelKeys[id] != key {
					t.Fatalf("seed %d step %d (%s): vehicle %s model key differs between incremental and full plan", seed, step, event, id)
				}
			}
			if len(inc.forecast) != len(full.forecast) {
				t.Fatalf("seed %d step %d (%s): %d vehicles incremental, %d full", seed, step, event, len(inc.forecast), len(full.forecast))
			}
			for id, want := range full.forecast {
				if got := inc.forecast[id]; got != want {
					t.Fatalf("seed %d step %d (%s): vehicle %s\nincremental %s\nfull        %s", seed, step, event, id, got, want)
				}
			}
			if wantTasks >= 0 && len(inc.plan.Tasks) != wantTasks {
				t.Fatalf("seed %d step %d (%s): planned %d tasks, want %d", seed, step, event, len(inc.plan.Tasks), wantTasks)
			}
			prev = inc
		}
	}
}

// tailDayTasks is the number of tasks a day appended to one vehicle
// (before -> after) must plan, or -1 when a completed first cycle moves
// the donor pool and with it every cold-start vehicle: one when the day
// completes a cycle of an old vehicle, flips a semi-new vehicle's donor
// or makes a new vehicle semi-new, else none.
func tailDayTasks(before, after *timeseries.VehicleSeries, fleet []*timeseries.VehicleSeries) int {
	var olds []*timeseries.VehicleSeries
	for _, vs := range fleet {
		if Categorize(vs) == Old {
			olds = append(olds, vs)
		}
	}
	switch cb, ca := Categorize(before), Categorize(after); {
	case cb == Old && labelledEnd(before) != labelledEnd(after),
		cb == SemiNew && ca == SemiNew && pickDonor(before, olds) != pickDonor(after, olds),
		cb == New && ca == SemiNew:
		return 1
	case cb != ca:
		return -1
	default:
		return 0
	}
}

func mustDerive(t *testing.T, id string, u timeseries.Series) *timeseries.VehicleSeries {
	t.Helper()
	vs, err := timeseries.Derive(id, u, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestUnifiedModelCarriedAcrossGenerations: with the donor pool
// unchanged, a new vehicle joining the fleet is served by the prior
// generation's unified model — no fit is observed — and a changed pool
// fits a fresh one.
func TestUnifiedModelCarriedAcrossGenerations(t *testing.T) {
	cfg := donorTestConfig()
	base, start := donorFleet(t) // the start date buildGeneration registers with
	first := buildGeneration(t, cfg, base, nil)
	unified := first.prior.Models["v05"]
	if first.prior.Statuses["v05"].Strategy != "unified" || unified == nil {
		t.Fatalf("v05 status %+v: the fixture needs a unified-served vehicle", first.prior.Statuses["v05"])
	}

	fits := 0
	observe := func(stage string, _ Algorithm, _ float64) {
		if stage == "fit" {
			fits++
		}
	}
	join := func(fleet []*timeseries.VehicleSeries) *TrainPlan {
		fp, err := NewFleetPredictor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		newcomer := mustDerive(t, "v06", timeseries.Series{15000, 15500, 16000, 0, 0, 15200, 15800, 16100})
		for _, vs := range append(fleet[:len(fleet):len(fleet)], newcomer) {
			if err := fp.AddVehicle(vs, start); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := fp.PlanTrainingWithReuse(first.prior)
		if err != nil {
			t.Fatal(err)
		}
		plan.Shared.Observe = observe
		return plan
	}
	trainV06 := func(plan *TrainPlan) ml.Regressor {
		for _, task := range plan.Tasks {
			if task.Vehicle.ID == "v06" {
				_, model, err := TrainVehicle(task, plan.Shared)
				if err != nil {
					t.Fatal(err)
				}
				return model
			}
		}
		t.Fatal("v06 was not planned")
		return nil
	}

	plan := join(base)
	if len(plan.Tasks) != 1 || plan.Tasks[0].Reason != ReasonOwnData || plan.PoolChanged || !plan.UnifiedReused {
		t.Fatalf("join with unchanged pool: %d tasks, pool_changed=%v unified_reused=%v", len(plan.Tasks), plan.PoolChanged, plan.UnifiedReused)
	}
	if got := trainV06(plan); got != unified || fits != 0 {
		t.Fatalf("newcomer got a refitted unified model (%d fits observed)", fits)
	}

	// One old vehicle's first cycle is rewritten: the carried model is no
	// longer what a retrain would produce, so a fresh one is fitted.
	moved := append([]*timeseries.VehicleSeries(nil), base...)
	u := moved[0].U.Clone()
	u[2] += 900
	moved[0] = mustDerive(t, moved[0].ID, u)
	plan = join(moved)
	if !plan.PoolChanged || plan.UnifiedReused {
		t.Fatalf("join with changed pool: pool_changed=%v unified_reused=%v", plan.PoolChanged, plan.UnifiedReused)
	}
	if got := trainV06(plan); got == unified || fits != 1 {
		t.Fatalf("changed pool kept the stale unified model (%d fits observed)", fits)
	}
}
