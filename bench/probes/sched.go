package main

import (
	"fmt"
	"time"

	"repro/internal/sched"
)

// probeSched times sched.Schedule for one request per vehicle of the
// fleet, due dates spread over a quarter, under the default plan
// parameters of GET /fleet/plan.
func probeSched(pf *probeFleet, _ string, m metrics) error {
	start := time.Date(2019, 10, 2, 0, 0, 0, 0, time.UTC)
	reqs := make([]sched.Request, len(pf.prepared))
	for i := range reqs {
		reqs[i] = sched.Request{VehicleID: fmt.Sprintf("v%03d", i), Due: start.AddDate(0, 0, i*7%90), Uncertainty: 2}
	}
	d, err := medianOf(200, func() error {
		_, err := sched.Schedule(reqs, sched.Config{Capacity: 2, Start: start, Horizon: 365, MaxLead: 7})
		return err
	})
	if err != nil {
		return err
	}
	m["sched.schedule_us"] = us(d)
	return nil
}
