package core

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/timeseries"
)

// Baseline is the BL algorithm of §4.1.1: assume future utilization is
// constant and equal to the historical average AVG_v, and predict
//
//	D̂_BL(t) = L_v(t) / AVG_v   (Eq. 6).
//
// The baseline "is not trained" (§5.1): Fit is a no-op kept only to
// satisfy the ml.Regressor contract, and AVG_v comes from the historical
// utilization series handed to the constructor.
type Baseline struct {
	avg    float64
	lScale float64
}

var _ ml.Regressor = (*Baseline)(nil)

// NewBaseline builds the baseline from the mean daily utilization of the
// training period (Eq. 5). lScale converts feature 0 back to seconds: it
// is T_v when features were built with Normalize, 1 otherwise.
func NewBaseline(avgUtilization, lScale float64) (*Baseline, error) {
	if avgUtilization <= 0 {
		return nil, fmt.Errorf("core: baseline requires positive average utilization, got %v", avgUtilization)
	}
	if lScale <= 0 {
		return nil, fmt.Errorf("core: baseline requires positive L scale, got %v", lScale)
	}
	return &Baseline{avg: avgUtilization, lScale: lScale}, nil
}

// BaselineFromSeries computes AVG_v over days [from, to) of the vehicle's
// utilization series (the training set of size T_train in Eq. 5) and
// returns the corresponding predictor for features built with cfg.
func BaselineFromSeries(vs *timeseries.VehicleSeries, from, to int, cfg FeatureConfig) (*Baseline, error) {
	avg := vs.U.Slice(from, to).Mean()
	scale := 1.0
	if cfg.Normalize {
		scale = vs.Allowance
	}
	b, err := NewBaseline(avg, scale)
	if err != nil {
		return nil, fmt.Errorf("core: baseline for vehicle %s over [%d,%d): %w", vs.ID, from, to, err)
	}
	return b, nil
}

// Fit is a no-op: the baseline has no trainable parameters.
func (b *Baseline) Fit(x [][]float64, y []float64) error { return nil }

// Predict returns L(t)/AVG_v, reading L from feature index 0.
func (b *Baseline) Predict(x []float64) float64 {
	if len(x) == 0 {
		panic("core: baseline Predict on empty feature vector")
	}
	return x[0] * b.lScale / b.avg
}

// Average exposes AVG_v (useful for the similarity measure of §4.4.1).
func (b *Baseline) Average() float64 { return b.avg }

// AppendBinary appends the baseline's encoding to b: AVG_v and the L
// scale, as float bits.
func (b *Baseline) AppendBinary(buf []byte) ([]byte, error) {
	buf = ml.AppendF64(buf, b.avg)
	return ml.AppendF64(buf, b.lScale), nil
}

// UnmarshalBinary restores a baseline written by AppendBinary.
func (b *Baseline) UnmarshalBinary(data []byte) error {
	d := ml.NewDecoder(data)
	b.avg = d.F64()
	b.lScale = d.F64()
	return d.Finish()
}
