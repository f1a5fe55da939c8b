package main

import (
	"sort"
	"time"

	"repro/internal/core"
)

// probeCore times core.PlanTraining plus core.TrainVehicle per
// cold-start category, and the one unified model a build shares among
// its new vehicles.
func probeCore(pf *probeFleet, _ string, m metrics) error {
	fp, err := core.NewFleetPredictor(core.DefaultPredictorConfig())
	if err != nil {
		return err
	}
	for _, v := range pf.prepared {
		if err := fp.AddVehicle(v.Series, v.Start); err != nil {
			return err
		}
	}
	tasks, shared, err := fp.PlanTraining()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := shared.Unified(); err != nil {
		return err
	}
	m["core.unified_fit_ms"] = ms(time.Since(t0))

	// At most eight vehicles per category: enough for a median, and the
	// probe stays a fraction of a cold train.
	byCategory := map[core.Category][]time.Duration{}
	for _, task := range tasks {
		if len(byCategory[task.Category]) >= 8 {
			continue
		}
		t0 := time.Now()
		if _, _, err := core.TrainVehicle(task, shared); err != nil {
			return err
		}
		byCategory[task.Category] = append(byCategory[task.Category], time.Since(t0))
	}
	mid := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ms(ds[len(ds)/2])
	}
	m["core.train_old_ms"] = mid(byCategory[core.Old])
	m["core.train_seminew_ms"] = mid(byCategory[core.SemiNew])
	return nil
}
