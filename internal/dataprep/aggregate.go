package dataprep

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/timeseries"
)

// Observation is one timestamped utilization measurement, the granularity
// at which the cloud collector stores controller reports.
type Observation struct {
	At      time.Time
	Seconds float64
}

// AggregateDaily reduces timestamped observations to the contiguous daily
// series between the first and last observed calendar days (UTC); days
// without observations are zero. This is paper §3, step iii: aggregation
// "at the desired time granularity", which for this study is daily.
func AggregateDaily(obs []Observation) (start time.Time, u timeseries.Series, err error) {
	if len(obs) == 0 {
		return time.Time{}, nil, fmt.Errorf("dataprep: AggregateDaily on empty input")
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At.Before(sorted[j].At) })

	day := func(t time.Time) time.Time {
		t = t.UTC()
		return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	}
	first := day(sorted[0].At)
	last := day(sorted[len(sorted)-1].At)
	n := int(last.Sub(first).Hours()/24) + 1
	u = make(timeseries.Series, n)
	for _, o := range sorted {
		idx := int(day(o.At).Sub(first).Hours() / 24)
		u[idx] += o.Seconds
	}
	return first, u, nil
}
