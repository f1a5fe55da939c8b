package forest

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// pinDataset is the fixed synthetic dataset shared by the pinned
// regression tests across the tree, forest and gbm packages (quantized
// features force ties).
func pinDataset(n, p int, seed uint64) ([][]float64, []float64) {
	rnd := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			x[i][j] = float64(rnd.Intn(20)) / 4
		}
		y[i] = 3*x[i][0] - 2*x[i][1] + rnd.NormFloat64()*0.5
	}
	return x, y
}

// TestForestPinnedPredictions pins the forest's predictions on a fixed
// dataset so future engine changes cannot silently drift the model.
//
// The pinned values are the shared-matrix weighted-bootstrap engine's
// (this PR). They differ from the seed implementation by tie ordering
// only: the seed materialized each bootstrap in draw order and sorted
// it unstably per node, while the engine keeps one (value, row)-sorted
// order per feature and expresses the bootstrap as multiplicities —
// bit-identical to a bag materialized in ascending row order (see the
// tree package's TestWeightedMatchesMaterializedBag). On tie-heavy data
// the two orderings occasionally round near-tied gains differently and
// pick a different but equally scoring split.
func TestForestPinnedPredictions(t *testing.T) {
	x, y := pinDataset(120, 4, 42)
	probes, _ := pinDataset(8, 4, 99)
	want := []float64{
		1.9119808294236891,
		2.4622030997024544,
		-2.1275823169463264,
		5.6277302572718941,
		7.2683274324143081,
		-2.9608243488675998,
		-1.6984497516248096,
		5.3302798201044101,
	}
	m := New(Config{NEstimators: 30, MaxDepth: 8, MinSamplesLeaf: 2, Seed: 7})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, probe := range probes {
		if got := m.Predict(probe); got != want[i] {
			t.Fatalf("probe %d: Predict = %.17g, want pinned %.17g", i, got, want[i])
		}
	}
}

// TestFitMatrixEqualsFit: training from a prebuilt shared matrix must
// be bit-identical to training from rows.
func TestFitMatrixEqualsFit(t *testing.T) {
	x, y := pinDataset(90, 3, 5)
	a := New(Config{NEstimators: 15, MaxDepth: 6, Seed: 3})
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{NEstimators: 15, MaxDepth: 6, Seed: 3})
	if err := b.FitMatrix(cm, y); err != nil {
		t.Fatal(err)
	}
	probes, _ := pinDataset(20, 3, 77)
	for i, probe := range probes {
		if pa, pb := a.Predict(probe), b.Predict(probe); pa != pb {
			t.Fatalf("probe %d: Fit %v, FitMatrix %v", i, pa, pb)
		}
	}
}

// TestPredictBatchMatchesPredict: the batch path must agree with the
// scalar path bit for bit.
func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := pinDataset(90, 3, 6)
	m := New(Config{NEstimators: 10, MaxDepth: 5, Seed: 2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probes, _ := pinDataset(25, 3, 88)
	batch := m.PredictBatch(probes)
	for i, probe := range probes {
		if got := m.Predict(probe); got != batch[i] {
			t.Fatalf("probe %d: Predict %v, batch %v", i, got, batch[i])
		}
	}
}
