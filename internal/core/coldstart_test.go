package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// coldStartFleet builds donors with heterogeneous rates plus one test
// vehicle whose rate matches donor 0.
func coldStartFleet(t *testing.T) (donors []*timeseries.VehicleSeries, test *timeseries.VehicleSeries) {
	t.Helper()
	rates := []float64{12000, 18000, 24000, 30000}
	for i, r := range rates {
		donors = append(donors, syntheticVehicle(t, "d"+string(rune('0'+i)), 300, r, 60))
	}
	test = syntheticVehicle(t, "probe", 300, 12500, 60)
	return donors, test
}

func TestHalfCycleDay(t *testing.T) {
	vs := syntheticVehicle(t, "v", 200, 14000, 42)
	half, err := halfCycleDay(vs)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := vs.FirstCycle()
	if half <= c.Start || half >= c.End {
		t.Fatalf("half day %d outside first cycle [%d,%d)", half, c.Start, c.End)
	}
	// Cumulative usage at `half` must have just crossed T/2.
	var cum float64
	for i := 0; i < half; i++ {
		cum += vs.U[i]
	}
	if cum < vs.Allowance/2 {
		t.Fatalf("cumulative %v below half allowance at day %d", cum, half)
	}
	if cum-vs.U[half-1] >= vs.Allowance/2 {
		t.Fatal("half day not minimal")
	}
}

func TestFirstCycleRecords(t *testing.T) {
	vs := syntheticVehicle(t, "v", 300, 20000, 50)
	recs, err := FirstCycleRecords(vs, FeatureConfig{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := vs.FirstCycle()
	for _, r := range recs {
		if r.Day < c.Start || r.Day >= c.End {
			t.Fatalf("record at day %d outside first cycle", r.Day)
		}
	}
}

func TestFirstCycleRecordsRequiresCompleteCycle(t *testing.T) {
	vs := syntheticVehicle(t, "v", 30, 20000, 300)
	if _, err := FirstCycleRecords(vs, FeatureConfig{}); err == nil {
		t.Fatal("incomplete first cycle accepted")
	}
}

func TestMostSimilarVehiclePicksMatchingRate(t *testing.T) {
	donors, test := coldStartFleet(t)
	best, dist, err := MostSimilarVehicle(test, donors, timeseries.AvgDistance)
	if err != nil {
		t.Fatal(err)
	}
	if best.ID != "d0" {
		t.Fatalf("picked %s (dist %v), want d0 (closest rate)", best.ID, dist)
	}
	if _, _, err := MostSimilarVehicle(test, nil, timeseries.AvgDistance); err == nil {
		t.Fatal("empty candidate set accepted")
	}
}

// TestNearestDonor pins the one donor scan through both entry points:
// the live pickDonor (probe = all history) and the offline
// MostSimilarVehicle (probe = first half-cycle).
func TestNearestDonor(t *testing.T) {
	donors, test := coldStartFleet(t)
	twin := syntheticVehicle(t, "twin", 300, 12000, 60)   // same series as d0
	young := syntheticVehicle(t, "young", 30, 20000, 300) // no complete first cycle
	ids := func(vs []*timeseries.VehicleSeries) (out []string) {
		for _, v := range vs {
			out = append(out, v.ID)
		}
		return out
	}
	id := func(vs *timeseries.VehicleSeries) string {
		if vs == nil {
			return ""
		}
		return vs.ID
	}
	// A nil dist is the deployed measure, which pickDonor hard-wires.
	live := func(cands []*timeseries.VehicleSeries, dist Distance) string {
		if dist == nil {
			return id(pickDonor(test, donorHalves(cands)))
		}
		best, _ := nearestDonor(test.U, cands, dist)
		return id(best)
	}
	offline := func(cands []*timeseries.VehicleSeries, dist Distance) string {
		if dist == nil {
			dist = timeseries.AvgDistance
		}
		best, _, err := MostSimilarVehicle(test, cands, dist)
		if (err == nil) != (best != nil) {
			t.Fatalf("MostSimilarVehicle gave %v with error %v", id(best), err)
		}
		return id(best)
	}
	// failOn is the paper's distance, except that it fails (claiming a
	// perfect match) against bad's half-cycle.
	failOn := func(bad *timeseries.VehicleSeries) Distance {
		return func(a, b timeseries.Series) (float64, error) {
			if &b[0] == &bad.U[0] {
				return 0, errors.New("unusable")
			}
			return timeseries.AvgDistance(a, b)
		}
	}

	for _, tc := range []struct {
		name  string
		cands []*timeseries.VehicleSeries
		dist  Distance // nil = timeseries.AvgDistance
		want  string   // "" = no usable candidate
	}{
		{"tie goes to the first", []*timeseries.VehicleSeries{donors[1], donors[0], twin}, nil, "d0"},
		{"tie in the other order", []*timeseries.VehicleSeries{twin, donors[0], donors[1]}, nil, "twin"},
		{"no half-cycle is skipped", []*timeseries.VehicleSeries{young, donors[2], donors[1]}, nil, "d1"},
		{"failed distance is skipped", []*timeseries.VehicleSeries{donors[0], donors[1]}, failOn(donors[0]), "d1"},
		{"nothing usable", []*timeseries.VehicleSeries{young}, nil, ""},
		{"no candidates", nil, nil, ""},
	} {
		for path, got := range map[string]string{"live": live(tc.cands, tc.dist), "offline": offline(tc.cands, tc.dist)} {
			if got != tc.want {
				t.Errorf("%s, %s path over %v: got %q, want %q", tc.name, path, ids(tc.cands), got, tc.want)
			}
		}
	}
}

func TestTrainUnifiedAndEvaluate(t *testing.T) {
	donors, test := coldStartFleet(t)
	cfg := NewColdStartConfig()
	cfg.Window = 2
	model, err := TrainUnified(donors, RF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateSemiNew(model, "RF_Uni", test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Predictions) == 0 {
		t.Fatal("no semi-new predictions")
	}
	// Deterministic weekday pattern: the unified model with a window
	// must track D closely.
	if mre := rep.MRE(DefaultDTilde()); math.IsNaN(mre) || mre > 15 {
		t.Fatalf("implausible unified MRE %v", mre)
	}
	// Semi-new evaluation must start at the half-cycle point.
	half, _ := halfCycleDay(test)
	for _, p := range rep.Predictions {
		if p.Day < half {
			t.Fatalf("semi-new prediction at new-phase day %d", p.Day)
		}
	}
}

func TestTrainUnifiedValidation(t *testing.T) {
	cfg := NewColdStartConfig()
	if _, err := TrainUnified(nil, RF, cfg); err == nil {
		t.Fatal("no donors accepted")
	}
	donors, _ := coldStartFleet(t)
	if _, err := TrainUnified(donors, BL, cfg); err == nil {
		t.Fatal("baseline unified accepted")
	}
}

func TestTrainSimilarityAndEvaluate(t *testing.T) {
	donors, test := coldStartFleet(t)
	cfg := NewColdStartConfig()
	cfg.Window = 2
	model, donor, err := TrainSimilarity(test, donors, XGB, cfg, timeseries.AvgDistance)
	if err != nil {
		t.Fatal(err)
	}
	if donor != "d0" {
		t.Fatalf("similarity donor %s, want d0", donor)
	}
	rep, err := EvaluateSemiNew(model, "XGB_Sim", test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mre := rep.MRE(DefaultDTilde()); math.IsNaN(mre) || mre > 15 {
		t.Fatalf("implausible similarity MRE %v", mre)
	}
	if _, _, err := TrainSimilarity(test, donors, BL, cfg, timeseries.AvgDistance); err == nil {
		t.Fatal("baseline similarity accepted")
	}
}

func TestEvaluateSemiNewBaseline(t *testing.T) {
	_, test := coldStartFleet(t)
	rep, err := EvaluateSemiNewBaseline(test, NewColdStartConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "BL" || len(rep.Predictions) == 0 {
		t.Fatalf("baseline report wrong: %+v", rep)
	}
}

func TestEvaluateNewPhase(t *testing.T) {
	donors, test := coldStartFleet(t)
	cfg := NewColdStartConfigForNew()
	cfg.Window = 2
	model, err := TrainUnified(donors, XGB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateNew(model, "XGB_Uni", test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	half, _ := halfCycleDay(test)
	for _, p := range rep.Predictions {
		if p.Day >= half {
			t.Fatalf("new-phase prediction at semi-new day %d", p.Day)
		}
	}
	if g := rep.Global(); math.IsNaN(g) {
		t.Fatal("EGlobal NaN")
	}
}

func TestFleetPredictorLifecycle(t *testing.T) {
	cfg := DefaultPredictorConfig()
	cfg.Window = 2
	cfg.Candidates = []Algorithm{LR, RF}
	fp, err := NewFleetPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

	old1 := noisyVehicle(t, "old1", 600, 11)
	old2 := noisyVehicle(t, "old2", 600, 12)
	semi := syntheticVehicle(t, "semi", 40, 16000, 60)
	fresh := syntheticVehicle(t, "fresh", 12, 16000, 60)
	for _, vs := range []*timeseries.VehicleSeries{old1, old2, semi, fresh} {
		if err := fp.AddVehicle(vs, start); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := fp.Predict("old1"); err == nil {
		t.Fatal("Predict before Train accepted")
	}

	statuses, err := fp.Train()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]VehicleStatus{}
	for _, st := range statuses {
		byID[st.ID] = st
	}
	if byID["old1"].Strategy != "per-vehicle" || byID["old2"].Strategy != "per-vehicle" {
		t.Fatalf("old strategy wrong: %+v", byID)
	}
	if byID["semi"].Strategy != "similarity" {
		t.Fatalf("semi strategy = %s, want similarity", byID["semi"].Strategy)
	}
	if byID["fresh"].Strategy != "unified" {
		t.Fatalf("fresh strategy = %s, want unified", byID["fresh"].Strategy)
	}

	forecasts, err := fp.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(forecasts) != 4 {
		t.Fatalf("got %d forecasts", len(forecasts))
	}
	for _, fc := range forecasts {
		if fc.DaysLeft < 0 {
			t.Fatalf("%s: negative days left", fc.VehicleID)
		}
		if fc.DueDate.Before(start) {
			t.Fatalf("%s: due date before acquisition", fc.VehicleID)
		}
	}
}

func TestFleetPredictorValidation(t *testing.T) {
	if _, err := NewFleetPredictor(PredictorConfig{Window: -1, Candidates: []Algorithm{RF}, ValidationFraction: 0.3}); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := NewFleetPredictor(PredictorConfig{Candidates: nil, ValidationFraction: 0.3}); err == nil {
		t.Fatal("no candidates accepted")
	}
	if _, err := NewFleetPredictor(PredictorConfig{Candidates: []Algorithm{RF}, ValidationFraction: 1.5}); err == nil {
		t.Fatal("bad validation fraction accepted")
	}
	fp, err := NewFleetPredictor(DefaultPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	vs := syntheticVehicle(t, "dup", 100, 20000, 30)
	if err := fp.AddVehicle(vs, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := fp.AddVehicle(vs, time.Now()); err == nil {
		t.Fatal("duplicate vehicle accepted")
	}
	if _, err := fp.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Predict("ghost"); err == nil {
		t.Fatal("unknown vehicle accepted")
	}
}
