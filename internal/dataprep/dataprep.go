// Package dataprep prepares a raw daily utilization series that did
// not come through the ingest store — a CSV export, a fleetgen file or
// a peer shard's donor series — for the predictor: it cleans missing
// and inconsistent values (paper §3, step i), validates the result and
// derives the §2 series. The store's telemetry doors already refuse
// every value Clean would repair, so the store derives its vehicles
// with timeseries.Derive directly. Normalization (§3, step ii) is
// core.FeatureConfig.Normalize, applied as the feature rows are built.
package dataprep

import (
	"fmt"
	"math"
	"time"

	"repro/internal/timeseries"
)

// MaxDailySeconds is the physical upper bound for one day of utilization.
const MaxDailySeconds = 86400.0

// CleanReport summarizes what Clean changed, so data-quality issues are
// observable rather than silently fixed.
type CleanReport struct {
	// Missing is the number of NaN values repaired by interpolation.
	Missing int
	// Negative is the number of negative readings clamped to zero.
	Negative int
	// Excessive is the number of readings above the physical daily
	// maximum, clamped to MaxDailySeconds.
	Excessive int
}

// Total returns the number of repaired values.
func (r CleanReport) Total() int { return r.Missing + r.Negative + r.Excessive }

// Clean repairs a raw daily utilization series in a copy and returns it
// with a report of the repairs (paper §3, step i):
//
//   - missing values (NaN) are linearly interpolated between the nearest
//     valid neighbours; leading/trailing gaps copy the nearest valid
//     value, and an all-missing series becomes all-zero;
//   - negative readings (sensor glitches) are clamped to 0;
//   - readings above 86 400 s/day (duplicated transmissions) are clamped
//     to the physical maximum.
func Clean(raw timeseries.Series) (timeseries.Series, CleanReport) {
	u := raw.Clone()
	var rep CleanReport

	for t, v := range u {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			// handled in the interpolation pass below
			u[t] = math.NaN()
		case v < 0:
			u[t] = 0
			rep.Negative++
		case v > MaxDailySeconds:
			u[t] = MaxDailySeconds
			rep.Excessive++
		}
	}

	// Interpolation pass for NaNs.
	n := len(u)
	for t := 0; t < n; t++ {
		if !math.IsNaN(u[t]) {
			continue
		}
		rep.Missing++
		prev, next := -1, -1
		for i := t - 1; i >= 0; i-- {
			if !math.IsNaN(u[i]) {
				prev = i
				break
			}
		}
		for i := t + 1; i < n; i++ {
			if !math.IsNaN(u[i]) {
				next = i
				break
			}
		}
		switch {
		case prev >= 0 && next >= 0:
			frac := float64(t-prev) / float64(next-prev)
			u[t] = u[prev] + frac*(u[next]-u[prev])
		case prev >= 0:
			u[t] = u[prev]
		case next >= 0:
			u[t] = u[next]
		default:
			u[t] = 0
		}
	}
	return u, rep
}

// ValidateClean returns an error if the series still contains values a
// cleaned series must not have. It is the post-condition of Clean and a
// precondition of timeseries.Derive.
func ValidateClean(u timeseries.Series) error {
	for t, v := range u {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataprep: non-finite value at day %d", t)
		}
		if v < 0 {
			return fmt.Errorf("dataprep: negative value %v at day %d", v, t)
		}
		if v > MaxDailySeconds {
			return fmt.Errorf("dataprep: value %v at day %d exceeds %v", v, t, MaxDailySeconds)
		}
	}
	return nil
}

// PreparedVehicle is one vehicle's cleaned and derived series.
type PreparedVehicle struct {
	ID     string
	Start  time.Time
	Series *timeseries.VehicleSeries
	Clean  CleanReport
}

// Prepare cleans, validates and derives one vehicle's raw daily series.
func Prepare(id string, start time.Time, raw timeseries.Series, allowance float64) (*PreparedVehicle, error) {
	clean, rep := Clean(raw)
	if err := ValidateClean(clean); err != nil {
		return nil, fmt.Errorf("dataprep: vehicle %s failed post-clean validation: %w", id, err)
	}
	vs, err := timeseries.Derive(id, clean, allowance)
	if err != nil {
		return nil, fmt.Errorf("dataprep: vehicle %s: %w", id, err)
	}
	return &PreparedVehicle{ID: id, Start: start, Series: vs, Clean: rep}, nil
}
