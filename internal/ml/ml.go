// Package ml is the machine-learning substrate of the reproduction: the
// Regressor contract shared by all models, in-memory datasets, train/test
// splitting, K-fold cross-validation, grid search, and regression
// metrics.
//
// The paper uses off-the-shelf Python regressors; since no Go equivalent
// is assumed to exist, the model families are re-implemented from scratch
// in the sub-packages linreg (ordinary least squares / ridge), svr
// (linear ε-insensitive support vector regression), tree (CART), forest
// (random forest) and gbm (histogram-based gradient boosting), matching
// the paper's LR / LSVR / RF / XGB lineup.
package ml

import (
	"errors"
	"fmt"
)

// Regressor is a supervised model mapping a feature vector to a real
// target. Implementations must be usable for repeated Fit calls (each
// call discards previous state).
type Regressor interface {
	// Fit trains on rows X with targets y. len(X) == len(y) and all rows
	// share one width.
	Fit(x [][]float64, y []float64) error
	// Predict returns the estimate for a single feature vector whose
	// width matches the training data.
	Predict(x []float64) float64
}

// Factory builds a fresh, unfitted regressor. Cross-validation and grid
// search clone models through factories so folds never share state.
type Factory func() Regressor

// MatrixFitter is implemented by regressors that can train directly
// from a shared ColMatrix, reusing its cached presorted orders and
// binnings instead of re-deriving them from row-major data. Grid search
// builds one matrix per CV fold and feeds it to every configuration
// that implements this interface.
type MatrixFitter interface {
	FitMatrix(cm *ColMatrix, y []float64) error
}

// BatchPredictor is implemented by regressors with a prediction path
// that is faster over many rows than repeated Predict calls (ensembles
// iterate members in the outer loop so each member's nodes stay
// cache-hot). PredictBatch prefers it when available.
type BatchPredictor interface {
	PredictBatch(x [][]float64) []float64
}

// ErrNoData is returned when fitting on an empty dataset.
var ErrNoData = errors.New("ml: empty training set")

// ValidateXY reports the first structural problem in a design matrix /
// target pair: emptiness, ragged rows, or length mismatch.
func ValidateXY(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(x), len(y))
	}
	w := len(x[0])
	if w == 0 {
		return errors.New("ml: zero-width feature rows")
	}
	for i, r := range x {
		if len(r) != w {
			return fmt.Errorf("ml: ragged design matrix, row %d has width %d, want %d", i, len(r), w)
		}
	}
	return nil
}

// Dataset is an in-memory design matrix with named columns.
type Dataset struct {
	// Names labels the feature columns (optional but kept aligned).
	Names []string
	// X holds one row per sample.
	X [][]float64
	// Y holds the target per sample.
	Y []float64
}

// NewDataset constructs a dataset, validating shape consistency.
func NewDataset(names []string, x [][]float64, y []float64) (*Dataset, error) {
	if err := ValidateXY(x, y); err != nil {
		return nil, err
	}
	if names != nil && len(names) != len(x[0]) {
		return nil, fmt.Errorf("ml: %d feature names for %d columns", len(names), len(x[0]))
	}
	return &Dataset{Names: names, X: x, Y: y}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Width returns the number of feature columns.
func (d *Dataset) Width() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a dataset view containing the given row indices. Rows
// are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]float64, len(idx))
	for i, j := range idx {
		x[i] = d.X[j]
		y[i] = d.Y[j]
	}
	return &Dataset{Names: d.Names, X: x, Y: y}
}

// SplitHoldout splits the dataset chronologically: the first
// trainFraction of rows become the training set, the remainder the test
// set. The paper uses "the first 70 % of their samples as training set,
// and the remaining part as test set" — order-preserving, no shuffling,
// as is proper for time series.
func (d *Dataset) SplitHoldout(trainFraction float64) (train, test *Dataset, err error) {
	if trainFraction <= 0 || trainFraction >= 1 {
		return nil, nil, fmt.Errorf("ml: train fraction %.3f outside (0,1)", trainFraction)
	}
	cut := int(float64(d.Len()) * trainFraction)
	if cut == 0 || cut == d.Len() {
		return nil, nil, fmt.Errorf("ml: split of %d samples at fraction %.3f leaves an empty side", d.Len(), trainFraction)
	}
	idxTrain := make([]int, cut)
	idxTest := make([]int, d.Len()-cut)
	for i := range idxTrain {
		idxTrain[i] = i
	}
	for i := range idxTest {
		idxTest[i] = cut + i
	}
	return d.Subset(idxTrain), d.Subset(idxTest), nil
}

// PredictBatch evaluates a fitted regressor over all rows, using the
// model's batch path when it has one.
func PredictBatch(r Regressor, x [][]float64) []float64 {
	if bp, ok := r.(BatchPredictor); ok {
		return bp.PredictBatch(x)
	}
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = r.Predict(row)
	}
	return out
}
