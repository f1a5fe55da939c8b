package experiments

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/timeseries"
)

// bandedDTW is the donor measure of the similarity ablation (Table3DTW):
// path-normalised dynamic time warping inside a Sakoe-Chiba band of 14
// days, the extension the paper cites as [9] beside its point-wise
// average distance.
func bandedDTW(a, b timeseries.Series) (float64, error) { return dtw(a, b, 14) }

// dtw is dynamic time warping with absolute-difference local cost,
// constrained to |i−j| ≤ band (widened to the length difference so a
// path exists) and normalised by the warping-path length so series of
// different lengths compare fairly. The DP is rolled over two rows to
// keep memory at O(len(b)).
func dtw(a, b timeseries.Series, band int) (float64, error) {
	if band <= 0 {
		return 0, fmt.Errorf("experiments: DTW band must be positive, got %d", band)
	}
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, errors.New("experiments: DTW of an empty series")
	}
	if d := n - m; d > band {
		band = d
	} else if -d > band {
		band = -d
	}

	type cell struct {
		cost float64
		len  int
	}
	inf := cell{math.Inf(1), 0}
	prev := make([]cell, m+1)
	cur := make([]cell, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = cell{0, 0}

	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo, hi := max(1, i-band), min(m, i+band)
		for j := lo; j <= hi; j++ {
			c := math.Abs(a[i-1] - b[j-1])
			best := prev[j-1] // match
			if prev[j].cost < best.cost {
				best = prev[j] // insertion
			}
			if cur[j-1].cost < best.cost {
				best = cur[j-1] // deletion
			}
			if math.IsInf(best.cost, 1) {
				continue
			}
			cur[j] = cell{best.cost + c, best.len + 1}
		}
		prev, cur = cur, prev
	}
	// The widened band always admits a path to (n, m).
	final := prev[m]
	return final.cost / float64(final.len), nil
}
