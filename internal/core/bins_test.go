package core

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// TestPredictorConfigHashPinned: persisted snapshots carry this hash
// (engine.Snapshot.ConfigHash); if it moves, every one is refused at boot.
func TestPredictorConfigHashPinned(t *testing.T) {
	if got := DefaultPredictorConfig().Hash(); got != 0xf187d55e44ab4ac0 {
		t.Fatalf("default config hash = %#x, want 0xf187d55e44ab4ac0", got)
	}
}

// TestGridSearchSharesBinnedLayout drives a real XGB grid search, whose
// configurations all bin at gbm's default resolution, and asserts, via
// the package-level binning counters, that each fold's binned layout is
// built exactly once and every other configuration reuses it.
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

	grid := ml.Grid{"depth": {3, 5}, "estimators": {4, 8}}
	builds0, reuses0 := ml.BinBuilds(), ml.BinReuses()
	_, err = ml.GridSearchCV(func(pp ml.Params) ml.Regressor {
		m, berr := Build(XGB, pp, 1)
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
		t.Fatal("no configuration reused a fold's binned layout")
	}
}
