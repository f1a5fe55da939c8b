package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

// noisyVehicle generates a more realistic series: weekday work with
// lognormal noise and occasional zero days.
func noisyVehicle(t *testing.T, id string, days int, seed uint64) *timeseries.VehicleSeries {
	t.Helper()
	rnd := rng.New(seed)
	u := make(timeseries.Series, days)
	for i := range u {
		switch {
		case i%7 >= 5:
			u[i] = 0
		case rnd.Bernoulli(0.05):
			u[i] = 0
		default:
			u[i] = 18000 * math.Exp(0.15*rnd.NormFloat64())
		}
	}
	vs, err := timeseries.Derive(id, u, 600_000) // ~47-day cycles
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func TestEvaluateOldEndToEnd(t *testing.T) {
	vs := noisyVehicle(t, "v", 700, 1)
	for _, alg := range Algorithms() {
		cfg := NewOldConfig()
		cfg.RestrictTrain = true
		res, err := EvaluateOld(vs, alg, cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Report.VehicleID != "v" || res.Report.Model != string(alg) {
			t.Fatalf("%s: report identity wrong: %+v", alg, res.Report)
		}
		if len(res.Report.Predictions) == 0 {
			t.Fatalf("%s: no test predictions", alg)
		}
		mre := res.Report.MRE(DefaultDTilde())
		if math.IsNaN(mre) || mre < 0 || mre > 60 {
			t.Fatalf("%s: implausible MRE %v", alg, mre)
		}
		// Test predictions must come from the held-out chronological
		// tail only.
		cut := int(0.7 * float64(len(vs.U)))
		for _, p := range res.Report.Predictions {
			if p.Day < cut {
				t.Fatalf("%s: test prediction at training day %d", alg, p.Day)
			}
		}
	}
}

func TestEvaluateOldRestrictionImprovesTrainedModels(t *testing.T) {
	vs := noisyVehicle(t, "v", 900, 2)
	for _, alg := range []Algorithm{RF, XGB} {
		all := NewOldConfig()
		res1, err := EvaluateOld(vs, alg, all)
		if err != nil {
			t.Fatal(err)
		}
		restricted := NewOldConfig()
		restricted.RestrictTrain = true
		res2, err := EvaluateOld(vs, alg, restricted)
		if err != nil {
			t.Fatal(err)
		}
		d := DefaultDTilde()
		if res2.Report.MRE(d) > res1.Report.MRE(d)*1.2 {
			t.Fatalf("%s: restriction made MRE much worse: %v -> %v",
				alg, res1.Report.MRE(d), res2.Report.MRE(d))
		}
	}
}

func TestEvaluateOldWindowFeatures(t *testing.T) {
	vs := noisyVehicle(t, "v", 700, 3)
	cfg := NewOldConfig()
	cfg.Window = 6
	cfg.RestrictTrain = true
	res, err := EvaluateOld(vs, RF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainRecords == 0 {
		t.Fatal("no training records")
	}
}

func TestEvaluateOldWithAugmentation(t *testing.T) {
	vs := noisyVehicle(t, "v", 700, 4)
	cfg := NewOldConfig()
	cfg.RestrictTrain = true
	plain, err := EvaluateOld(vs, RF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Augment = 4
	aug, err := EvaluateOld(vs, RF, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if aug.TrainRecords <= plain.TrainRecords {
		t.Fatalf("augmentation did not add records: %d vs %d", aug.TrainRecords, plain.TrainRecords)
	}
}

func TestEvaluateOldGridSearch(t *testing.T) {
	vs := noisyVehicle(t, "v", 600, 5)
	cfg := NewOldConfig()
	cfg.RestrictTrain = true
	cfg.GridSearch = true
	cfg.Grid = CoarseGrid(LSVR)
	res, err := EvaluateOld(vs, LSVR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Params["epsilon"]; !ok {
		t.Fatalf("grid search returned no epsilon: %v", res.Params)
	}
}

func TestEvaluateOldRejectsNonOld(t *testing.T) {
	vs := syntheticVehicle(t, "v", 30, 20000, 300)
	if _, err := EvaluateOld(vs, RF, NewOldConfig()); err == nil {
		t.Fatal("non-old vehicle accepted")
	}
}

func TestEvaluateOldConfigValidation(t *testing.T) {
	vs := noisyVehicle(t, "v", 400, 6)
	cfg := NewOldConfig()
	cfg.TrainFraction = 1.5
	if _, err := EvaluateOld(vs, RF, cfg); err == nil {
		t.Fatal("bad train fraction accepted")
	}
	cfg = NewOldConfig()
	cfg.Window = -1
	if _, err := EvaluateOld(vs, RF, cfg); err == nil {
		t.Fatal("negative window accepted")
	}
	cfg = NewOldConfig()
	cfg.GridSearch = true
	cfg.CVFolds = 1
	if _, err := EvaluateOld(vs, RF, cfg); err == nil {
		t.Fatal("single CV fold accepted")
	}
}

func TestBuildRegistry(t *testing.T) {
	for _, alg := range TrainedAlgorithms() {
		m, err := Build(alg, DefaultParams(alg), 1)
		if err != nil || m == nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if _, err := Build(BL, nil, 1); err == nil {
		t.Fatal("building BL from params accepted")
	}
	if _, err := Build("nope", nil, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestGridsCoverPaperRanges(t *testing.T) {
	full := FullGrid(RF)
	depths := full["depth"]
	if depths[0] != 3 || depths[len(depths)-1] != 50 {
		t.Fatalf("RF depth grid %v does not span 3..50", depths)
	}
	est := full["estimators"]
	if est[0] != 10 || est[len(est)-1] != 1000 {
		t.Fatalf("RF estimator grid %v does not span 10..1000", est)
	}
	svr := FullGrid(LSVR)
	if svr["epsilon"][0] != 0.5 || svr["epsilon"][len(svr["epsilon"])-1] != 2.5 {
		t.Fatalf("SVR epsilon grid %v does not span 0.5..2.5", svr["epsilon"])
	}
	if svr["C"][0] != 0.01 || svr["C"][len(svr["C"])-1] != 100 {
		t.Fatalf("SVR C grid %v does not span 0.01..100", svr["C"])
	}
}
