package ml

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rng"
)

// Params is one hyper-parameter assignment. Integer-valued parameters
// (tree depth, estimator counts) are carried as float64 and rounded by
// the model builder.
type Params map[string]float64

// Clone returns a copy of the parameter assignment.
func (p Params) Clone() Params {
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// String renders parameters in deterministic key order, for logs.
func (p Params) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%g", k, p[k])
	}
	return s + "}"
}

// Grid is a hyper-parameter search space: each name maps to candidate
// values; Expand enumerates the cross product.
type Grid map[string][]float64

// Expand enumerates all parameter assignments in deterministic order
// (keys sorted, values in declaration order).
func (g Grid) Expand() []Params {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []Params{{}}
	for _, k := range keys {
		vals := g[k]
		next := make([]Params, 0, len(out)*len(vals))
		for _, base := range out {
			for _, v := range vals {
				p := base.Clone()
				p[k] = v
				next = append(next, p)
			}
		}
		out = next
	}
	return out
}

// Builder constructs a regressor from a parameter assignment.
type Builder func(p Params) Regressor

// SearchResult reports the winning configuration of a grid search.
type SearchResult struct {
	Best      Params
	BestScore float64
	// Evaluated is the number of configurations scored.
	Evaluated int
}

// foldEval is one CV fold materialized once and shared read-only by
// every grid configuration: the train/validation subsets plus a column
// matrix over the training rows. The matrix's presorted orders and
// binnings are computed lazily on first use and then reused by every
// configuration whose model understands matrices (MatrixFitter), so a
// 5×5×2 grid over 5 folds derives each fold's matrices once instead of
// 250 times.
type foldEval struct {
	trainX [][]float64
	trainY []float64
	cm     *ColMatrix
	valX   [][]float64
	valY   []float64
}

// GridSearchCV exhaustively evaluates the grid with k-fold
// cross-validation (the paper: "a grid search using a 5-fold cross
// validation") and returns the configuration with the lowest mean
// validation loss. Ties break toward the earlier configuration in
// deterministic expansion order.
//
// All configurations are scored on the same fold partition (one
// shuffle, drawn from rnd), which both makes the comparison across
// configurations paired — lower-variance than re-partitioning per
// configuration — and lets every configuration share the per-fold
// column matrices. Configurations are evaluated concurrently;
// determinism is preserved because the only random draw happens up
// front.
func GridSearchCV(b Builder, grid Grid, d *Dataset, k int, score Scorer, rnd *rng.Source) (SearchResult, error) {
	configs := grid.Expand()
	if len(configs) == 0 {
		return SearchResult{}, fmt.Errorf("ml: empty parameter grid")
	}
	folds, err := KFold(d.Len(), k, true, rnd)
	if err != nil {
		return SearchResult{}, err
	}
	shared := make([]foldEval, len(folds))
	for i, f := range folds {
		train := d.Subset(f.Train)
		val := d.Subset(f.Val)
		cm, err := NewColMatrix(train.X)
		if err != nil {
			return SearchResult{}, fmt.Errorf("ml: fold %d: %w", i, err)
		}
		shared[i] = foldEval{trainX: train.X, trainY: train.Y, cm: cm, valX: val.X, valY: val.Y}
	}

	scores := make([]float64, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := range configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := configs[i]
			var total float64
			for fi := range shared {
				f := &shared[fi]
				model := b(cfg)
				var ferr error
				if mf, ok := model.(MatrixFitter); ok {
					ferr = mf.FitMatrix(f.cm, f.trainY)
				} else {
					ferr = model.Fit(f.trainX, f.trainY)
				}
				if ferr != nil {
					errs[i] = fmt.Errorf("fold %d fit: %w", fi, ferr)
					return
				}
				s, serr := score(f.valY, PredictBatch(model, f.valX))
				if serr != nil {
					errs[i] = fmt.Errorf("fold %d score: %w", fi, serr)
					return
				}
				total += s
			}
			scores[i] = total / float64(len(shared))
		}(i)
	}
	wg.Wait()

	best := -1
	for i := range configs {
		if errs[i] != nil {
			return SearchResult{}, fmt.Errorf("ml: grid config %s: %w", configs[i], errs[i])
		}
		if best < 0 || scores[i] < scores[best] {
			best = i
		}
	}
	return SearchResult{Best: configs[best], BestScore: scores[best], Evaluated: len(configs)}, nil
}
