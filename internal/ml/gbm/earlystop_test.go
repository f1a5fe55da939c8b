package gbm

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestEarlyStoppingTruncatesEnsemble(t *testing.T) {
	// Pure-noise target: no round genuinely improves validation loss,
	// so boosting must stop long before NEstimators.
	rnd := rng.New(1)
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rnd.Float64()}
		y[i] = rnd.NormFloat64()
	}
	m := New(Config{NEstimators: 500, MaxDepth: 3, LearningRate: 0.3, EarlyStoppingRounds: 10, Seed: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.TreeCount() >= 500 {
		t.Fatalf("early stopping never fired: %d trees", m.TreeCount())
	}
}

func TestEarlyStoppingKeepsLearnableSignal(t *testing.T) {
	x, y := sine(21, 600, 0.2)
	m := New(Config{NEstimators: 400, MaxDepth: 4, LearningRate: 0.1, EarlyStoppingRounds: 25, Seed: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// The fitted model must still track the sine despite stopping.
	if got := m.Predict([]float64{math.Pi / 2}); math.Abs(got-5) > 1.2 {
		t.Fatalf("early-stopped prediction %v, want ≈5", got)
	}
	if m.TreeCount() == 0 {
		t.Fatal("no trees kept")
	}
}

func TestEarlyStoppingImprovesNoisyGeneralization(t *testing.T) {
	// With very noisy data, unlimited boosting overfits; early stopping
	// must not be worse on a fresh test set.
	xTrain, yTrain := sine(22, 250, 3.0)
	xTest, yTest := sine(23, 400, 0.0) // noise-free truth

	testMAE := func(m *Model) float64 {
		var s float64
		for i := range xTest {
			s += math.Abs(m.Predict(xTest[i]) - yTest[i])
		}
		return s / float64(len(xTest))
	}
	full := New(Config{NEstimators: 400, MaxDepth: 6, LearningRate: 0.3, Seed: 2})
	if err := full.Fit(xTrain, yTrain); err != nil {
		t.Fatal(err)
	}
	stopped := New(Config{NEstimators: 400, MaxDepth: 6, LearningRate: 0.3, EarlyStoppingRounds: 15, Seed: 2})
	if err := stopped.Fit(xTrain, yTrain); err != nil {
		t.Fatal(err)
	}
	if stopped.TreeCount() >= full.TreeCount() {
		t.Fatalf("early stopping kept %d of %d trees", stopped.TreeCount(), full.TreeCount())
	}
	if testMAE(stopped) > testMAE(full)*1.1 {
		t.Fatalf("early stopping hurt generalization: %v vs %v", testMAE(stopped), testMAE(full))
	}
}

func TestEarlyStoppingValidationFractionDefault(t *testing.T) {
	m := New(Config{EarlyStoppingRounds: 5})
	if m.ValidationFraction <= 0 || m.ValidationFraction >= 1 {
		t.Fatalf("validation fraction default not applied: %v", m.ValidationFraction)
	}
	m2 := New(Config{})
	if m2.ValidationFraction != 0 {
		t.Fatalf("validation fraction set without early stopping: %v", m2.ValidationFraction)
	}
}

// TestEarlyStoppingKeepsOnlyUsedNodes: after early stopping cuts the
// ensemble, the model holds exactly its stages' nodes, not round 0's
// reservation for every round.
func TestEarlyStoppingKeepsOnlyUsedNodes(t *testing.T) {
	rnd := rng.New(1)
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rnd.Float64()}
		y[i] = rnd.NormFloat64()
	}
	m := New(Config{NEstimators: 500, MaxDepth: 3, LearningRate: 0.3, EarlyStoppingRounds: 10, Seed: 1})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m.TreeCount() >= 500 {
		t.Fatalf("early stopping never fired: %d trees", m.TreeCount())
	}
	if cap(m.nodes) != len(m.nodes) || cap(m.stageStart) != len(m.stageStart) {
		t.Fatalf("%d nodes in a buffer of %d, %d stage starts in %d", len(m.nodes), cap(m.nodes), len(m.stageStart), cap(m.stageStart))
	}
}
