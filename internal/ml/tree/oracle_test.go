package tree

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// randomDataset draws a dataset exercising the split engine's edge
// cases: quantized columns (heavy ties), one constant column, and a
// continuous column.
func randomDataset(rnd *rng.Source, n, p int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	constCol := rnd.Intn(p)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			switch {
			case j == constCol:
				x[i][j] = 3.25
			case j%2 == 0:
				x[i][j] = float64(rnd.Intn(8)) / 2 // quantized: ties
			default:
				x[i][j] = rnd.Float64() * 10
			}
		}
		y[i] = 2*x[i][0] - x[i][p-1] + rnd.NormFloat64()
	}
	// Occasionally make the target constant too (single-leaf case).
	if rnd.Intn(7) == 0 {
		for i := range y {
			y[i] = 4
		}
	}
	return x, y
}

func nodesEqual(a, b []node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExactEngineMatchesNaiveOracle is the oracle property test of the
// tentpole: the presorted exact engine must grow trees bit-identical to
// the retained naive reference (per-node re-sorting) on randomized
// datasets including ties, constant columns, feature subsampling and
// leaf-size floors — node arrays, importances and predictions all
// compare exactly.
func TestExactEngineMatchesNaiveOracle(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rnd := rng.New(uint64(100 + trial))
		n := 5 + rnd.Intn(120)
		p := 1 + rnd.Intn(5)
		x, y := randomDataset(rnd, n, p)
		cfg := Config{
			MaxDepth:       rnd.Intn(9), // 0 = unlimited
			MinSamplesLeaf: 1 + rnd.Intn(4),
			Seed:           rnd.Uint64(),
		}
		if rnd.Intn(2) == 0 && p > 1 {
			cfg.MaxFeatures = 1 + rnd.Intn(p)
		}

		engine := New(cfg)
		if err := engine.Fit(x, y); err != nil {
			t.Fatalf("trial %d: engine fit: %v", trial, err)
		}
		oracle := New(cfg)
		oracle.fitNaive(x, y)

		if !nodesEqual(engine.nodes, oracle.nodes) {
			t.Fatalf("trial %d (n=%d p=%d cfg=%+v): engine tree differs from naive oracle:\nengine %d nodes, oracle %d nodes",
				trial, n, p, cfg, len(engine.nodes), len(oracle.nodes))
		}
		for i := range engine.importances {
			if engine.importances[i] != oracle.importances[i] {
				t.Fatalf("trial %d: importance %d: engine %v, oracle %v", trial, i, engine.importances[i], oracle.importances[i])
			}
		}
		for k := 0; k < 25; k++ {
			probe := make([]float64, p)
			for j := range probe {
				probe[j] = rnd.Range(-2, 12)
			}
			if pe, po := engine.Predict(probe), oracle.Predict(probe); pe != po {
				t.Fatalf("trial %d: Predict(%v): engine %v, oracle %v", trial, probe, pe, po)
			}
		}
	}
}

// TestExactEngineMatchesNaiveOracleLarge is the oracle check at a size
// the randomized trials above never reach: 4096 rows, so the root and
// its children partition thousands of presorted rows per feature.
func TestExactEngineMatchesNaiveOracleLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("naive oracle re-sorts every node")
	}
	x, y := randomDataset(rng.New(991), 4096, 4)
	cfg := Config{MaxDepth: 8, MinSamplesLeaf: 2, Seed: 7}
	engine := New(cfg)
	if err := engine.Fit(x, y); err != nil {
		t.Fatalf("engine fit: %v", err)
	}
	oracle := New(cfg)
	oracle.fitNaive(x, y)
	if !nodesEqual(engine.nodes, oracle.nodes) {
		t.Fatalf("engine tree differs from naive oracle: engine %d nodes, oracle %d nodes",
			len(engine.nodes), len(oracle.nodes))
	}
	for j := range engine.importances {
		if engine.importances[j] != oracle.importances[j] {
			t.Fatalf("importance %d: engine %v, oracle %v", j, engine.importances[j], oracle.importances[j])
		}
	}
}

// TestWeightedMatchesMaterializedBag: fitting with integer row
// multiplicities must be bit-identical to fitting on the materialized
// multiset (rows repeated in ascending order) — the property the forest
// relies on to share one presorted matrix across bootstraps.
func TestWeightedMatchesMaterializedBag(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rnd := rng.New(uint64(7000 + trial))
		n := 10 + rnd.Intn(90)
		p := 1 + rnd.Intn(4)
		x, y := randomDataset(rnd, n, p)
		w := make([]float64, n)
		var bx [][]float64
		var by []float64
		for i := 0; i < n; i++ {
			w[rnd.Intn(n)]++
		}
		for j := 0; j < n; j++ {
			for k := 0; k < int(w[j]); k++ {
				bx = append(bx, x[j])
				by = append(by, y[j])
			}
		}
		cfg := Config{MaxDepth: 1 + rnd.Intn(8), MinSamplesLeaf: 1 + rnd.Intn(3)}

		weighted := New(cfg)
		cm, err := ml.NewColMatrix(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := weighted.FitWeighted(cm, y, w); err != nil {
			t.Fatalf("trial %d: weighted fit: %v", trial, err)
		}
		materialized := New(cfg)
		if err := materialized.Fit(bx, by); err != nil {
			t.Fatalf("trial %d: materialized fit: %v", trial, err)
		}
		for k := 0; k < 25; k++ {
			probe := make([]float64, p)
			for j := range probe {
				probe[j] = rnd.Range(-2, 12)
			}
			if pw, pm := weighted.Predict(probe), materialized.Predict(probe); pw != pm {
				t.Fatalf("trial %d: Predict(%v): weighted %v, materialized %v", trial, probe, pw, pm)
			}
		}
	}
}

// TestFitMatrixSharedAcrossTrees: many trees fit from one shared matrix
// must equal trees fit independently — the matrix's cached orders are
// read-only.
func TestFitMatrixSharedAcrossTrees(t *testing.T) {
	rnd := rng.New(99)
	x, y := randomDataset(rnd, 80, 3)
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		cfg := Config{MaxDepth: 3 + trial, MinSamplesLeaf: 2}
		a := New(cfg)
		if err := a.FitMatrix(cm, y); err != nil {
			t.Fatal(err)
		}
		b := New(cfg)
		if err := b.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(a.nodes, b.nodes) {
			t.Fatalf("trial %d: shared-matrix tree differs from standalone tree", trial)
		}
	}
}

// TestTreePinnedPredictions pins the exact engine against values
// captured from the seed implementation (pre-engine, per-node
// re-sorting): the default strategy must reproduce them bit for bit.
func TestTreePinnedPredictions(t *testing.T) {
	x, y := pinDataset(120, 4, 42)
	probes, _ := pinDataset(8, 4, 99)
	want := []float64{
		-0.077157441675128724,
		1.4060244039891978,
		-2.8780557822320976,
		6.7933560449612163,
		7.5318745866182795,
		-2.8780557822320976,
		-0.53394798169713642,
		9.033749865941866,
	}
	m := New(Config{MaxDepth: 6, MinSamplesLeaf: 2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, probe := range probes {
		if got := m.Predict(probe); got != want[i] {
			t.Fatalf("probe %d: Predict = %.17g, want seed value %.17g", i, got, want[i])
		}
	}
}

// pinDataset is the fixed synthetic dataset shared by the pinned
// regression tests here and in the forest and gbm packages (quantized
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

// TestWeightValidation: weights are multiplicities — fractional,
// negative, all-zero or int32-overflowing weights must be rejected,
// and a zero-value Model (MinSamplesLeaf 0) must still fit without
// panicking.
func TestWeightValidation(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	for _, tc := range []struct {
		name string
		w    []float64
	}{
		{"fractional", []float64{0.5, 0.5, 0.5, 0.5}},
		{"negative", []float64{1, -1, 1, 1}},
		{"all-zero", []float64{0, 0, 0, 0}},
		{"2^31", []float64{1 << 31, 1, 1, 1}},
		{"2^32", []float64{1 << 32, 1, 1, 1}},
	} {
		if err := m.FitWeighted(cm, y, tc.w); err == nil {
			t.Fatalf("%s weights %v accepted", tc.name, tc.w)
		}
	}
	var zero Model // not built via New: MinSamplesLeaf is 0
	if err := zero.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := zero.Predict([]float64{1}); math.IsNaN(got) {
		t.Fatal("zero-value model predicted NaN")
	}
}
