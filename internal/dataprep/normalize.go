package dataprep

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotFitted is returned when a scaler is used before Fit.
var ErrNotFitted = errors.New("dataprep: scaler used before Fit")

// Scaler maps raw values to a normalized range and back. Scalers are fit
// on training data only and then applied to both training and test data,
// so no information leaks across the split (paper §3, step ii:
// normalization "avoids introducing bias in regression model learning").
type Scaler interface {
	// Fit learns the scaling parameters from values.
	Fit(values []float64) error
	// Transform maps a value to the normalized range.
	Transform(v float64) float64
	// Inverse maps a normalized value back to the raw range.
	Inverse(v float64) float64
}

// MinMaxScaler scales linearly so the fitted minimum maps to 0 and the
// fitted maximum to 1 (the paper's "uniform value range (e.g., from 0 to
// 1)"). A constant input maps everything to 0.
type MinMaxScaler struct {
	min, max float64
	fitted   bool
}

// Fit learns min and max. It fails on empty or non-finite input.
func (s *MinMaxScaler) Fit(values []float64) error {
	if len(values) == 0 {
		return errors.New("dataprep: MinMaxScaler.Fit on empty input")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataprep: MinMaxScaler.Fit non-finite value at index %d", i)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s.min, s.max, s.fitted = lo, hi, true
	return nil
}

// Transform maps v into [0, 1] with respect to the fitted range. Values
// outside the fitted range extrapolate linearly (they are not clipped, so
// Inverse∘Transform stays the identity). It panics if unfitted, since
// that is a sequencing bug, not a data condition.
func (s *MinMaxScaler) Transform(v float64) float64 {
	s.mustFitted()
	if s.max == s.min {
		return 0
	}
	return (v - s.min) / (s.max - s.min)
}

// Inverse maps a scaled value back to the raw range.
func (s *MinMaxScaler) Inverse(v float64) float64 {
	s.mustFitted()
	if s.max == s.min {
		return s.min
	}
	return s.min + v*(s.max-s.min)
}

func (s *MinMaxScaler) mustFitted() {
	if !s.fitted {
		panic(ErrNotFitted)
	}
}

// StandardScaler normalizes to zero mean and unit variance. A constant
// input maps everything to 0.
type StandardScaler struct {
	mean, std float64
	fitted    bool
}

// Fit learns mean and standard deviation.
func (s *StandardScaler) Fit(values []float64) error {
	if len(values) == 0 {
		return errors.New("dataprep: StandardScaler.Fit on empty input")
	}
	var sum float64
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataprep: StandardScaler.Fit non-finite value at index %d", i)
		}
		sum += v
	}
	mean := sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	s.mean = mean
	s.std = math.Sqrt(ss / float64(len(values)))
	s.fitted = true
	return nil
}

// Transform maps v to (v − mean)/std.
func (s *StandardScaler) Transform(v float64) float64 {
	if !s.fitted {
		panic(ErrNotFitted)
	}
	if s.std == 0 {
		return 0
	}
	return (v - s.mean) / s.std
}

// Inverse maps a standardized value back to the raw scale.
func (s *StandardScaler) Inverse(v float64) float64 {
	if !s.fitted {
		panic(ErrNotFitted)
	}
	return s.mean + v*s.std
}
