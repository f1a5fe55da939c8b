package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a timing may report, low
// to high.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: with fewer, the value is one or two outliers, not a
// property of the distribution.
const tailSamples = 10

// highestPercentile returns the highest ladder percentile that still
// has at least tailSamples samples beyond it in a set of n, or 50 when
// even the median does not.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// supported reports whether n samples leave tailSamples beyond
// percentile p (with a tolerance for 100−p not being exact in binary).
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailSamples-1e-9
}

// percentile returns the p-th percentile (nearest rank) of xs, which
// must be sorted ascending; 0 for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timing summarises one latency distribution: the sample count, the
// median, and the highest percentile the count supports.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	sorted  []float64
}

func summarise(xs []float64) timing {
	s := sortedCopy(xs)
	t := timing{N: len(s), sorted: s}
	if len(s) == 0 {
		return t
	}
	t.P50 = percentile(s, 50)
	t.TailPct = highestPercentile(len(s))
	t.Tail = percentile(s, t.TailPct)
	return t
}

// at returns the p-th percentile of the summarised samples.
func (t timing) at(p float64) float64 { return percentile(t.sorted, p) }

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// does, because the acceptance rule for this benchmark is stated in
// those terms. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
