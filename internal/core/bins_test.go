package core

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/rng"
)

func TestApplyBins(t *testing.T) {
	base := ml.Params{"estimators": 10, "depth": 5}
	got := ApplyBins(base, 64)
	if got["bins"] != 64 {
		t.Fatalf("bins not applied: %v", got)
	}
	if _, ok := base["bins"]; ok {
		t.Fatal("ApplyBins mutated its input")
	}
	pinned := ml.Params{"bins": 128}
	if got := ApplyBins(pinned, 64); got["bins"] != 128 {
		t.Fatalf("ApplyBins overrode a pinned value: %v", got)
	}
	if got := ApplyBins(base, 0); got["bins"] != 0 || len(got) != len(base) {
		t.Fatalf("bins=0 should be a no-op, got %v", got)
	}
	if got := ApplyBins(base, 1); len(got) != len(base) {
		t.Fatalf("bins=1 should be a no-op, got %v", got)
	}
}

func TestApplyBinsReachesEnsembles(t *testing.T) {
	rf, err := Build(RF, ApplyBins(DefaultParams(RF), 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rf.(*forest.Model).Bins; got != 64 {
		t.Fatalf("forest Bins = %d, want 64", got)
	}
	xgb, err := Build(XGB, ApplyBins(DefaultParams(XGB), 64), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := xgb.(*gbm.Model).MaxBins; got != 64 {
		t.Fatalf("gbm MaxBins = %d, want 64", got)
	}
}

func TestPredictorConfigHashIncludesBins(t *testing.T) {
	a := DefaultPredictorConfig()
	b := a
	b.Bins = 128
	if a.Hash() == b.Hash() {
		t.Fatal("Bins change did not change the config hash")
	}
}

// TestPredictorConfigHashPinned: persisted snapshots carry this hash
// (engine.Snapshot.ConfigHash); if it moves, every one is refused at boot.
func TestPredictorConfigHashPinned(t *testing.T) {
	if got := DefaultPredictorConfig().Hash(); got != 0xf187d55e44ab4ac0 {
		t.Fatalf("default config hash = %#x, want 0xf187d55e44ab4ac0", got)
	}
}

// TestGridSearchSharesBinnedLayout drives a real grid search whose
// configurations all share one histogram resolution and asserts, via the
// package-level binning counters, that each fold's binned layout is
// built exactly once and every configuration reuses it.
func TestGridSearchSharesBinnedLayout(t *testing.T) {
	const n, p, folds = 240, 3, 3
	rnd := rng.New(11)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, p)
		for j := range row {
			row[j] = rnd.Float64() * 10
		}
		x[i] = row
		y[i] = 2*row[0] - row[1] + rnd.NormFloat64()*0.1
	}
	d, err := ml.NewDataset([]string{"a", "b", "c"}, x, y)
	if err != nil {
		t.Fatal(err)
	}

	const bins = 32
	grid := ml.Grid{"depth": {3, 5}, "estimators": {4, 8}}
	builds0, reuses0 := ml.BinBuilds(), ml.BinReuses()
	_, err = ml.GridSearchCV(func(pp ml.Params) ml.Regressor {
		m, berr := Build(RF, ApplyBins(pp, bins), 1)
		if berr != nil {
			panic(berr)
		}
		return m
	}, grid, d, folds, ml.MAE, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	builds := ml.BinBuilds() - builds0
	reuses := ml.BinReuses() - reuses0
	if builds != folds {
		t.Fatalf("binned layouts built %d times, want exactly one per fold (%d)", builds, folds)
	}
	if reuses == 0 {
		t.Fatal("no configuration reused a prewarmed binned layout")
	}
}
