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

// register returns a fresh predictor with the fleet registered.
func register(t *testing.T, cfg PredictorConfig, fleet []*timeseries.VehicleSeries) *FleetPredictor {
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
	return fp
}

// buildGeneration registers the fleet on a fresh predictor, plans
// against prior, trains the planned tasks (a failing vehicle keeps its
// error as its status, as in the engine) and forecasts every vehicle.
func buildGeneration(t *testing.T, cfg PredictorConfig, fleet []*timeseries.VehicleSeries, prior *PriorGeneration) builtGeneration {
	t.Helper()
	fp := register(t, cfg, fleet)
	plan, err := fp.PlanTrainingWithReuse(prior)
	if err != nil {
		t.Fatal(err)
	}
	series, _ := fp.Registered()
	next := &PriorGeneration{
		ModelKeys: plan.ModelKeys,
		PoolHash:  plan.PoolHash,
		Statuses:  make(map[string]VehicleStatus),
		Models:    plan.ReusedModels,
		Series:    series,
		Olds:      plan.Olds,
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

// samePlan fails unless a and b plan the same keys, pool key, tasks
// (vehicle, category, reason, seed and donor pick) and reused vehicles.
func samePlan(t *testing.T, label string, a, b *TrainPlan) {
	t.Helper()
	if a.PoolHash != b.PoolHash || a.PoolChanged != b.PoolChanged || a.Olds != b.Olds {
		t.Fatalf("%s: pool key %x/%v/%d vs %x/%v/%d", label, a.PoolHash, a.PoolChanged, a.Olds, b.PoolHash, b.PoolChanged, b.Olds)
	}
	if len(a.ModelKeys) != len(b.ModelKeys) {
		t.Fatalf("%s: %d model keys vs %d", label, len(a.ModelKeys), len(b.ModelKeys))
	}
	for id, key := range b.ModelKeys {
		if a.ModelKeys[id] != key {
			t.Fatalf("%s: vehicle %s model key %x vs %x", label, id, a.ModelKeys[id], key)
		}
	}
	donorID := func(vs *timeseries.VehicleSeries) string {
		if vs == nil {
			return ""
		}
		return vs.ID
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Reused) != len(b.Reused) {
		t.Fatalf("%s: %d tasks and %d reused vs %d and %d", label, len(a.Tasks), len(a.Reused), len(b.Tasks), len(b.Reused))
	}
	for i, ta := range a.Tasks {
		tb := b.Tasks[i]
		if ta.Vehicle != tb.Vehicle || ta.Category != tb.Category || ta.Reason != tb.Reason || ta.Seed != tb.Seed || donorID(ta.Donor) != donorID(tb.Donor) {
			t.Fatalf("%s: task %d %s/%s/%s donor %q vs %s/%s/%s donor %q", label, i,
				ta.Vehicle.ID, ta.Category, ta.Reason, donorID(ta.Donor), tb.Vehicle.ID, tb.Category, tb.Reason, donorID(tb.Donor))
		}
	}
	for i := range a.Reused {
		if a.Reused[i].ID != b.Reused[i].ID {
			t.Fatalf("%s: reused %d is %s vs %s", label, i, a.Reused[i].ID, b.Reused[i].ID)
		}
	}
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
//
// Every step also plans against the same prior with carrying off (no
// prior series, as after a restore) and requires the same plan: what
// the plan carries by series identity or a compare is what hashing
// gives. The events that aim at carrying: an unchanged vehicle
// re-derived into a new series (the compare path), a backfill inside a
// donor's first cycle and a donor leaving (the pool key must not be
// carried), and a donor's twin joining ahead of it in ID order (every
// distance tie goes to the twin, TestNearestDonor's rule).
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
		for step := 0; step < 90; step++ {
			i := rnd.Intn(len(fleet))
			vs := fleet[i]
			var olds []int
			for j, v := range fleet {
				if Categorize(v) == Old {
					olds = append(olds, j)
				}
			}
			event, wantTasks, wantPoolChanged, tieLoser := "", -1, false, ""
			switch k := rnd.Intn(14); {
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
			case k < 10:
				if len(fleet) <= 4 {
					continue
				}
				event = vs.ID + " leaves"
				fleet = append(fleet[:i:i], fleet[i+1:]...)
			case k < 11:
				event = vs.ID + " re-derived unchanged"
				fleet[i] = mustDerive(t, vs.ID, vs.U.Clone())
				wantTasks = 0
			case len(olds) == 0:
				continue
			case k < 12:
				i = olds[rnd.Intn(len(olds))]
				vs = fleet[i]
				u := vs.U.Clone()
				d := rnd.Intn(vs.Cycles[0].End)
				u[d] += 1000
				event = fmt.Sprintf("day %d of donor %s backfilled", d, vs.ID)
				fleet[i] = mustDerive(t, vs.ID, u)
				wantPoolChanged = true
			case k < 13:
				if len(fleet) <= 4 {
					continue
				}
				i = olds[rnd.Intn(len(olds))]
				event = "donor " + fleet[i].ID + " leaves"
				fleet = append(fleet[:i:i], fleet[i+1:]...)
				wantPoolChanged = true
			default:
				joined++
				orig := fleet[olds[rnd.Intn(len(olds))]]
				id := fmt.Sprintf("a%02d", joined) // sorts ahead of every v and w
				event = id + " joins as the twin of donor " + orig.ID
				fleet = append(fleet, mustDerive(t, id, orig.U.Clone()))
				tieLoser = orig.ID
			}
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, event)
			inc := buildGeneration(t, cfg, fleet, prev.prior)
			full := buildGeneration(t, cfg, fleet, nil)
			off := *prev.prior
			off.Series = nil
			offPlan, err := register(t, cfg, fleet).PlanTrainingWithReuse(&off)
			if err != nil {
				t.Fatal(err)
			}
			samePlan(t, label+": carried vs hashed", inc.plan, offPlan)
			if inc.plan.PoolHash != full.plan.PoolHash {
				t.Fatalf("%s: pool key differs between incremental and full plan", label)
			}
			for id, key := range full.plan.ModelKeys {
				if inc.plan.ModelKeys[id] != key {
					t.Fatalf("%s: vehicle %s model key differs between incremental and full plan", label, id)
				}
			}
			if len(inc.forecast) != len(full.forecast) {
				t.Fatalf("%s: %d vehicles incremental, %d full", label, len(inc.forecast), len(full.forecast))
			}
			for id, want := range full.forecast {
				if got := inc.forecast[id]; got != want {
					t.Fatalf("%s: vehicle %s\nincremental %s\nfull        %s", label, id, got, want)
				}
			}
			if wantTasks >= 0 && len(inc.plan.Tasks) != wantTasks {
				t.Fatalf("%s: planned %d tasks, want %d", label, len(inc.plan.Tasks), wantTasks)
			}
			if wantPoolChanged && !inc.plan.PoolChanged {
				t.Fatalf("%s: the pool key was carried", label)
			}
			for _, task := range inc.plan.Tasks {
				if task.Donor != nil && task.Donor.ID == tieLoser {
					t.Fatalf("%s: %s picked %s over its identical twin, which comes first", label, task.Vehicle.ID, tieLoser)
				}
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
		cb == SemiNew && ca == SemiNew && pickDonor(before, donorHalves(olds)) != pickDonor(after, donorHalves(olds)),
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
