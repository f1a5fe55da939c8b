// Package linreg implements ordinary least squares and ridge linear
// regression — the paper's LR model ("the simplest linear model. It
// learns a linear function minimizing the residual sum of squares").
//
// The solver forms the normal equations and factorizes them with
// Cholesky; near-singular (collinear) designs fall back to a minimal
// diagonal jitter so OLS on windowed, highly autocorrelated utilization
// features remains well-posed.
package linreg

import (
	"fmt"

	"repro/internal/ml"
)

// Model is a linear regressor ŷ = w·x + b.
type Model struct {
	// Ridge is the L2 penalty on the weights (0 = plain OLS). The
	// intercept is never penalized.
	Ridge float64

	weights   []float64
	intercept float64
	fitted    bool
}

var _ ml.Regressor = (*Model)(nil)

// New returns an OLS model.
func New() *Model { return &Model{} }

// NewRidge returns a ridge model with the given L2 penalty.
func NewRidge(ridge float64) *Model { return &Model{Ridge: ridge} }

// Fit estimates weights and intercept by least squares. Inputs are
// centered first so the ridge penalty leaves the intercept alone.
func (m *Model) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateXY(x, y); err != nil {
		return err
	}
	if m.Ridge < 0 {
		return fmt.Errorf("linreg: negative ridge %v", m.Ridge)
	}
	n, p := len(x), len(x[0])

	// Column means for centering.
	xMean := make([]float64, p)
	var yMean float64
	for i := 0; i < n; i++ {
		for j, v := range x[i] {
			xMean[j] += v
		}
		yMean += y[i]
	}
	for j := range xMean {
		xMean[j] /= float64(n)
	}
	yMean /= float64(n)

	xc := newDense(n, p)
	yc := make([]float64, n)
	for i := 0; i < n; i++ {
		row := xc.row(i)
		for j, v := range x[i] {
			row[j] = v - xMean[j]
		}
		yc[i] = y[i] - yMean
	}

	w, err := leastSquares(xc, yc, m.Ridge)
	if err != nil {
		return fmt.Errorf("linreg: solving normal equations: %w", err)
	}
	m.weights = w
	m.intercept = yMean - dot(w, xMean)
	m.fitted = true
	return nil
}

// Predict returns w·x + b. It panics when called before Fit or with a
// mismatched width, both of which are programming errors.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted {
		panic("linreg: Predict before Fit")
	}
	if len(x) != len(m.weights) {
		panic(fmt.Sprintf("linreg: feature width %d, model width %d", len(x), len(m.weights)))
	}
	return dot(m.weights, x) + m.intercept
}

// Coefficients returns a copy of the fitted weights and the intercept.
func (m *Model) Coefficients() (weights []float64, intercept float64, err error) {
	if !m.fitted {
		return nil, 0, fmt.Errorf("linreg: model not fitted")
	}
	w := make([]float64, len(m.weights))
	copy(w, m.weights)
	return w, m.intercept, nil
}
