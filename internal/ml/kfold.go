package ml

import (
	"fmt"

	"repro/internal/rng"
)

// Fold is one train/validation split of a K-fold partition.
type Fold struct {
	Train []int
	Val   []int
}

// KFold partitions n sample indices into k folds. When shuffle is true
// the indices are permuted with the supplied source first (the paper uses
// standard 5-fold cross-validation for hyper-parameter tuning).
func KFold(n, k int, shuffle bool, rnd *rng.Source) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("ml: k-fold requires k >= 2, got %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("ml: cannot split %d samples into %d folds", n, k)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if shuffle {
		if rnd == nil {
			return nil, fmt.Errorf("ml: shuffled k-fold requires a random source")
		}
		rnd.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	folds := make([]Fold, k)
	// Distribute remainders so fold sizes differ by at most one.
	base, rem := n/k, n%k
	pos := 0
	for f := 0; f < k; f++ {
		size := base
		if f < rem {
			size++
		}
		val := idx[pos : pos+size]
		train := make([]int, 0, n-size)
		train = append(train, idx[:pos]...)
		train = append(train, idx[pos+size:]...)
		folds[f] = Fold{Train: train, Val: val}
		pos += size
	}
	return folds, nil
}

// Scorer maps (true, predicted) to a loss; lower is better.
type Scorer func(yTrue, yPred []float64) (float64, error)
