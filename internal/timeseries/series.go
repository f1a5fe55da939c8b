// Package timeseries implements the per-vehicle series defined in §2 of
// the paper: the daily utilization series U_v(t), the days-since-last-
// maintenance counter C_v(t), the utilization-seconds-left series L_v(t)
// (Eq. 1), and the prediction target D_v(t) — the number of days left
// until the next maintenance is due.
//
// Maintenance is due once the cumulative utilization inside the current
// cycle reaches the per-vehicle allowance T_v (the paper uses
// T_v = 2 000 000 seconds for every vehicle). The package derives cycle
// boundaries from a raw utilization series, segments the data into
// cycles, and offers the distance used by the similarity computation of
// §4.4.
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// DefaultAllowance is T_v from the paper: allowed utilization seconds
// between two consecutive maintenance operations.
const DefaultAllowance = 2_000_000.0

// Series is a daily time series indexed by day offset t = 0, 1, 2, ...
type Series []float64

// Clone returns a deep copy.
func (s Series) Clone() Series {
	c := make(Series, len(s))
	copy(c, s)
	return c
}

// Sum returns the sum of all values.
func (s Series) Sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Slice returns s[from:to] as a copy, clamping the bounds to the series.
func (s Series) Slice(from, to int) Series {
	if from < 0 {
		from = 0
	}
	if to > len(s) {
		to = len(s)
	}
	if from >= to {
		return Series{}
	}
	return s[from:to].Clone()
}

// Cycle is one maintenance cycle: days [Start, End) of the utilization
// series, where day End is the day the cumulative utilization reached the
// allowance (i.e. the maintenance-due day).
type Cycle struct {
	// Index is the 0-based ordinal of the cycle within the vehicle's
	// history (0 = first cycle since data acquisition started).
	Index int
	// Start is the first day of the cycle (inclusive).
	Start int
	// End is the maintenance-due day (exclusive end of the cycle).
	End int
	// Usage is the cumulative utilization inside the cycle, in seconds.
	Usage float64
	// Complete reports whether the allowance was actually reached; the
	// trailing cycle of a series is usually incomplete.
	Complete bool
}

// Days returns the length of the cycle in days.
func (c Cycle) Days() int { return c.End - c.Start }

// VehicleSeries bundles the four per-vehicle series of §2 plus the cycle
// segmentation they derive from. All slices share the same length N_v.
type VehicleSeries struct {
	// ID identifies the vehicle the series belong to.
	ID string
	// Allowance is T_v, the allowed usage seconds per cycle.
	Allowance float64
	// U is the daily utilization series U_v(t) in seconds.
	U Series
	// C counts the days already passed since the last maintenance:
	// C_v(t).
	C []int
	// L is the utilization time left to the next maintenance, Eq. 1.
	L Series
	// D is the target: number of days left to the next maintenance.
	// For days in the trailing incomplete cycle the target is unknown
	// and set to -1 (callers must mask those out of training data).
	D []int
	// Cycles is the segmentation of the series into maintenance cycles.
	Cycles []Cycle
}

// ErrEmptySeries is returned when a utilization series has no days.
var ErrEmptySeries = errors.New("timeseries: empty utilization series")

// Derive computes C, L, D and the cycle segmentation from a raw daily
// utilization series, mirroring §2 of the paper:
//
//   - a maintenance becomes due on the first day the cumulative cycle
//     utilization reaches the allowance T_v; the next cycle starts on the
//     following day;
//   - C(t) counts days since the current cycle started;
//   - L(t) = T_v − Σ_{i=t−C(t)}^{t−1} U(i) is the usage left at the
//     *beginning* of day t (Eq. 1);
//   - D(t) is the number of days from t until (and including) the
//     maintenance-due day of the current cycle, so D(t) = 0 on the due
//     day itself, matching Figure 2 where the sawtooth touches zero.
func Derive(id string, u Series, allowance float64) (*VehicleSeries, error) {
	return DeriveOwned(id, u.Clone(), allowance)
}

// DeriveOwned is Derive for a caller that hands u over: the derived
// series keeps u itself as its U instead of a copy, so the caller must
// not write u afterwards.
func DeriveOwned(id string, u Series, allowance float64) (*VehicleSeries, error) {
	if len(u) == 0 {
		return nil, ErrEmptySeries
	}
	if allowance <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive allowance %v for vehicle %s", allowance, id)
	}
	for t, v := range u {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("timeseries: invalid utilization %v on day %d for vehicle %s (run dataprep.Clean first)", v, t, id)
		}
	}

	n := len(u)
	vs := &VehicleSeries{
		ID:        id,
		Allowance: allowance,
		U:         u,
		C:         make([]int, n),
		L:         make(Series, n),
		D:         make([]int, n),
	}

	cycleStart := 0
	var cum float64
	cycleIdx := 0
	for t := 0; t < n; t++ {
		vs.C[t] = t - cycleStart
		vs.L[t] = allowance - cum
		if vs.L[t] < 0 {
			vs.L[t] = 0
		}
		cum += u[t]
		if cum >= allowance {
			// Day t is the maintenance-due day: close the cycle.
			vs.Cycles = append(vs.Cycles, Cycle{
				Index:    cycleIdx,
				Start:    cycleStart,
				End:      t + 1,
				Usage:    cum,
				Complete: true,
			})
			cycleIdx++
			cycleStart = t + 1
			cum = 0
		}
	}
	if cycleStart < n {
		vs.Cycles = append(vs.Cycles, Cycle{
			Index:    cycleIdx,
			Start:    cycleStart,
			End:      n,
			Usage:    cum,
			Complete: false,
		})
	}

	// Fill D by walking cycles: inside a complete cycle [s, e) the due day
	// is e-1, so D(t) = e-1-t. Inside the trailing incomplete cycle the
	// due day is unknown: mark with -1.
	for _, c := range vs.Cycles {
		for t := c.Start; t < c.End; t++ {
			if c.Complete {
				vs.D[t] = c.End - 1 - t
			} else {
				vs.D[t] = -1
			}
		}
	}
	return vs, nil
}

// CompleteCycles returns only the cycles whose allowance was reached.
func (vs *VehicleSeries) CompleteCycles() []Cycle {
	out := make([]Cycle, 0, len(vs.Cycles))
	for _, c := range vs.Cycles {
		if c.Complete {
			out = append(out, c)
		}
	}
	return out
}

// CumulativeUsage returns the total utilization seconds accumulated since
// the beginning of data acquisition. Together with the allowance it
// determines the paper's new / semi-new / old categorization.
func (vs *VehicleSeries) CumulativeUsage() float64 { return vs.U.Sum() }

// FirstCycle returns the first cycle and true, or a zero Cycle and false
// when the series is empty.
func (vs *VehicleSeries) FirstCycle() (Cycle, bool) {
	if len(vs.Cycles) == 0 {
		return Cycle{}, false
	}
	return vs.Cycles[0], true
}

// AvgDistance returns the point-wise average absolute distance between
// two series truncated to their common length. This is the similarity
// measure the paper uses to pick the most similar old vehicle for a
// semi-new vehicle (§4.4.1).
func AvgDistance(a, b Series) (float64, error) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0, ErrEmptySeries
	}
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(n), nil
}
