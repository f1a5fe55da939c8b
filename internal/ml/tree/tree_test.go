package tree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFitsPiecewiseConstantExactly(t *testing.T) {
	// Two clusters split at x = 5: a depth-1 tree suffices.
	x := [][]float64{{1}, {2}, {3}, {7}, {8}, {9}}
	y := []float64{10, 10, 10, 20, 20, 20}
	m := New(Config{MaxDepth: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0}); got != 10 {
		t.Fatalf("left leaf = %v", got)
	}
	if got := m.Predict([]float64{100}); got != 20 {
		t.Fatalf("right leaf = %v", got)
	}
	if m.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", m.Depth())
	}
	if m.NodeCount() != 3 {
		t.Fatalf("nodes = %d, want 3", m.NodeCount())
	}
}

func TestConstantTargetSingleLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{5, 5, 5}
	m := New(Config{})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.NodeCount() != 1 {
		t.Fatalf("constant target grew %d nodes", m.NodeCount())
	}
	if m.Predict([]float64{99}) != 5 {
		t.Fatal("constant prediction wrong")
	}
}

func TestRespectsMaxDepth(t *testing.T) {
	rnd := rng.New(1)
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = []float64{rnd.Float64()}
		y[i] = rnd.Float64()
	}
	for _, depth := range []int{1, 2, 4} {
		m := New(Config{MaxDepth: depth})
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if got := m.Depth(); got > depth {
			t.Fatalf("depth %d exceeds cap %d", got, depth)
		}
	}
}

func TestRespectsMinSamplesLeaf(t *testing.T) {
	rnd := rng.New(2)
	n := 64
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rnd.Float64()}
		y[i] = rnd.Float64()
	}
	m := New(Config{MinSamplesLeaf: 10})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// With min-leaf 10 over 64 samples, at most 6 leaves exist.
	leaves := (m.NodeCount() + 1) / 2
	if leaves > 6 {
		t.Fatalf("%d leaves violate min-leaf bound", leaves)
	}
}

func TestPredictionWithinTrainingRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 20 + rnd.Intn(100)
		x := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			x[i] = []float64{rnd.Range(-10, 10), rnd.Range(-10, 10)}
			y[i] = rnd.Range(-100, 100)
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		m := New(Config{MaxDepth: 6})
		if m.Fit(x, y) != nil {
			return false
		}
		for k := 0; k < 20; k++ {
			p := m.Predict([]float64{rnd.Range(-20, 20), rnd.Range(-20, 20)})
			// Leaf values are means of training targets, so predictions
			// can never escape the training range.
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsOnInformativeFeature(t *testing.T) {
	// Feature 1 is pure noise; feature 0 fully determines y. The root
	// split must use feature 0.
	rnd := rng.New(5)
	x := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		sign := float64(1)
		if i%2 == 0 {
			sign = -1
		}
		x[i] = []float64{sign, rnd.Float64()}
		y[i] = sign * 10
	}
	m := New(Config{MaxDepth: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{-1, 0.5}); got != -10 {
		t.Fatalf("Predict(-1) = %v, want -10", got)
	}
	if got := m.Predict([]float64{1, 0.5}); got != 10 {
		t.Fatalf("Predict(+1) = %v, want 10", got)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rnd := rng.New(6)
	x := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range x {
		x[i] = []float64{rnd.Float64(), rnd.Float64(), rnd.Float64()}
		y[i] = rnd.Float64() * 10
	}
	a := New(Config{MaxDepth: 8, MaxFeatures: 2, Seed: 77})
	b := New(Config{MaxDepth: 8, MaxFeatures: 2, Seed: 77})
	if err := a.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		probe := []float64{rnd.Float64(), rnd.Float64(), rnd.Float64()}
		if a.Predict(probe) != b.Predict(probe) {
			t.Fatal("same seed produced different trees")
		}
	}
}

func TestValidation(t *testing.T) {
	m := New(Config{})
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	m = New(Config{MaxFeatures: -1})
	if err := m.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("negative MaxFeatures accepted")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{}).Predict([]float64{1})
}

func TestDuplicateFeatureValuesNoSplit(t *testing.T) {
	// All feature values identical: no separating split exists; the
	// tree must stay a single leaf predicting the mean.
	x := [][]float64{{3}, {3}, {3}, {3}}
	y := []float64{1, 2, 3, 4}
	m := New(Config{})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.NodeCount() != 1 {
		t.Fatalf("grew %d nodes on unsplittable data", m.NodeCount())
	}
	if got := m.Predict([]float64{3}); got != 2.5 {
		t.Fatalf("mean prediction = %v", got)
	}
}

// TestFitKeepsOnlyUsedNodes: a fitted tree holds exactly the nodes it
// grew, not the builder's worst-case reservation. A constant target
// grows one leaf against a reservation of 2n+1.
func TestFitKeepsOnlyUsedNodes(t *testing.T) {
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = 7
	}
	m := New(Config{MinSamplesLeaf: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.NodeCount() != 1 || cap(m.nodes) != len(m.nodes) {
		t.Fatalf("%d nodes in a buffer of %d, want 1 in 1", len(m.nodes), cap(m.nodes))
	}
}
