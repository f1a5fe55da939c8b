// Package forest implements a random forest regressor — the paper's RF
// model: "an established ensemble method combining the predictions of
// multiple decision trees ... trained on different bootstraps (i.e.,
// samples of the training data with replacement)".
//
// Trees are CART regressors from internal/ml/tree, decorrelated through
// bootstrap resampling and per-split feature subsampling, and trained
// concurrently with one deterministic RNG sub-stream per tree. All
// trees share one column-major matrix (ml.ColMatrix): features are
// presorted exactly once per Fit, and each bootstrap is expressed as
// per-row multiplicities instead of materialized duplicate rows.
package forest

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/rng"
)

// Config controls the ensemble.
type Config struct {
	// NEstimators is the number of trees (paper grid: 10 … 1000).
	NEstimators int
	// MaxDepth bounds each tree (paper grid: 3 … 50; 0 = unlimited).
	MaxDepth int
	// MinSamplesLeaf is the per-tree leaf size floor.
	MinSamplesLeaf int
	// MaxFeatures is the per-split feature subsample; 0 selects the
	// regression default of using every feature at every split (the
	// scikit-learn RandomForestRegressor default, which the paper's
	// setup relies on: with a single dominant feature such as L(t),
	// aggressive subsampling would starve most splits of it). Set to
	// a smaller value to decorrelate trees further.
	MaxFeatures int
	// Seed makes the ensemble deterministic.
	Seed uint64
	// ComputeOOB enables out-of-bag error estimation during Fit: each
	// sample is scored by the trees whose bootstrap missed it, giving
	// a generalization estimate without a holdout set.
	ComputeOOB bool
}

// DefaultConfig returns a balanced forest configuration.
func DefaultConfig() Config {
	return Config{NEstimators: 100, MaxDepth: 0, MinSamplesLeaf: 1, Seed: 1}
}

// Model is a fitted random forest.
type Model struct {
	Config

	trees  []*tree.Model
	width  int
	fitted bool

	oobMAE     float64
	oobCovered int
	hasOOB     bool
}

var _ ml.Regressor = (*Model)(nil)
var _ ml.MatrixFitter = (*Model)(nil)
var _ ml.BatchPredictor = (*Model)(nil)

// New returns an unfitted forest with the given configuration.
func New(cfg Config) *Model {
	if cfg.NEstimators <= 0 {
		cfg.NEstimators = 100
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &Model{Config: cfg}
}

// Fit trains NEstimators trees on bootstrap resamples of (x, y).
func (m *Model) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateXY(x, y); err != nil {
		return err
	}
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		return err
	}
	return m.FitMatrix(cm, y)
}

// FitMatrix trains the forest from a prebuilt column matrix, reusing
// its cached presorted orders across every tree — and, when the matrix
// is shared further (grid search folds), across every configuration
// evaluated on it.
func (m *Model) FitMatrix(cm *ml.ColMatrix, y []float64) error {
	if cm.Len() != len(y) {
		return fmt.Errorf("forest: %d rows but %d targets", cm.Len(), len(y))
	}
	n, p := cm.Len(), cm.Width()
	maxFeat := m.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = p
	}
	if maxFeat > p {
		return fmt.Errorf("forest: MaxFeatures %d exceeds feature count %d", maxFeat, p)
	}

	// Force the shared presorted orders once, before the workers race
	// to read them.
	cm.Order()

	// One deterministic sub-stream per tree, derived sequentially.
	root := rng.New(m.Seed ^ 0x6a09e667f3bcc908)
	seeds := make([]*rng.Source, m.NEstimators)
	for t := range seeds {
		seeds[t] = root.Split()
	}

	trees := make([]*tree.Model, m.NEstimators)
	errs := make([]error, m.NEstimators)
	var inBag [][]bool
	if m.ComputeOOB {
		inBag = make([][]bool, m.NEstimators)
	}
	// Trees train on at most GOMAXPROCS goroutines. The fitted forest
	// does not depend on the pool width: tree seeds derive from
	// sequential sub-streams and every tree writes its own slot.
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for t := 0; t < m.NEstimators; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rnd := seeds[t]
			// The bootstrap as multiplicities: w[j] counts how often
			// row j was drawn.
			w := make([]float64, n)
			for i := 0; i < n; i++ {
				w[rnd.Intn(n)]++
			}
			tr := tree.New(tree.Config{
				MaxDepth:       m.MaxDepth,
				MinSamplesLeaf: m.MinSamplesLeaf,
				MaxFeatures:    maxFeat,
				Seed:           rnd.Uint64(),
			})
			if err := tr.FitWeighted(cm, y, w); err != nil {
				errs[t] = err
				return
			}
			trees[t] = tr
			if m.ComputeOOB {
				bag := make([]bool, n)
				for j, wj := range w {
					bag[j] = wj > 0
				}
				inBag[t] = bag
			}
		}(t)
	}
	wg.Wait()
	for t, err := range errs {
		if err != nil {
			return fmt.Errorf("forest: tree %d: %w", t, err)
		}
	}
	m.trees = trees
	m.width = p
	m.fitted = true
	m.hasOOB = false
	if m.ComputeOOB {
		m.computeOOB(cm, y, inBag)
	}
	return nil
}

// computeOOB scores every sample with the trees that did not see it.
func (m *Model) computeOOB(cm *ml.ColMatrix, y []float64, inBag [][]bool) {
	n := cm.Len()
	row := make([]float64, m.width)
	var absSum float64
	covered := 0
	for i := 0; i < n; i++ {
		for j := 0; j < m.width; j++ {
			row[j] = cm.Col(j)[i]
		}
		var sum float64
		votes := 0
		for t, tr := range m.trees {
			if inBag[t][i] {
				continue
			}
			sum += tr.Predict(row)
			votes++
		}
		if votes == 0 {
			continue // sample appeared in every bootstrap
		}
		d := sum/float64(votes) - y[i]
		if d < 0 {
			d = -d
		}
		absSum += d
		covered++
	}
	if covered > 0 {
		m.oobMAE = absSum / float64(covered)
		m.oobCovered = covered
		m.hasOOB = true
	}
}

// OOBMAE returns the out-of-bag mean absolute error and the number of
// samples it covers. It fails when Fit ran without ComputeOOB or no
// sample was ever out of bag.
func (m *Model) OOBMAE() (mae float64, covered int, err error) {
	if !m.hasOOB {
		return 0, 0, fmt.Errorf("forest: no OOB estimate (enable ComputeOOB before Fit)")
	}
	return m.oobMAE, m.oobCovered, nil
}

// Importances averages the member trees' normalized feature importances.
func (m *Model) Importances() ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("forest: Importances before Fit")
	}
	out := make([]float64, m.width)
	for _, tr := range m.trees {
		imp, err := tr.Importances()
		if err != nil {
			return nil, err
		}
		for j, v := range imp {
			out[j] += v
		}
	}
	var total float64
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for j := range out {
			out[j] /= total
		}
	}
	return out, nil
}

// Predict averages the member trees' predictions.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted {
		panic("forest: Predict before Fit")
	}
	if len(x) != m.width {
		panic(fmt.Sprintf("forest: feature width %d, model width %d", len(x), m.width))
	}
	var s float64
	for _, t := range m.trees {
		s += t.Predict(x)
	}
	return s / float64(len(m.trees))
}

// PredictBatch averages the member trees over all rows, iterating trees
// in the outer loop so each tree's nodes stay cache-hot across rows.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	if !m.fitted {
		panic("forest: Predict before Fit")
	}
	out := make([]float64, len(x))
	for _, t := range m.trees {
		t.PredictSumInto(x, out)
	}
	for i := range out {
		out[i] /= float64(len(m.trees))
	}
	return out
}

// TreeCount returns the number of fitted trees.
func (m *Model) TreeCount() int { return len(m.trees) }
