package main

import (
	"sort"

	"repro/internal/core"
)

// probeML fits each model family once per repetition on the training
// set of the old vehicle with the fleet's median row count, and records
// the fleet's row counts — the sizes production fits actually have.
func probeML(pf *probeFleet, _ string, m metrics) error {
	cfg := core.DefaultPredictorConfig()
	type trainingSet struct {
		x [][]float64
		y []float64
	}
	var sets []trainingSet
	for _, i := range pf.old {
		recs, err := core.BuildRecords(pf.prepared[i].Series, core.FeatureConfig{Window: cfg.Window, Normalize: cfg.Normalize})
		if err != nil {
			return err
		}
		x, y := core.RecordsToXY(recs)
		sets = append(sets, trainingSet{x, y})
	}
	if len(sets) == 0 {
		return nil
	}
	sort.Slice(sets, func(i, j int) bool { return len(sets[i].y) < len(sets[j].y) })
	mid := sets[len(sets)/2]
	m["ml.fit_rows_p50"] = float64(len(mid.y))
	m["ml.fit_rows_max"] = float64(len(sets[len(sets)-1].y))
	for name, alg := range map[string]core.Algorithm{"lr": core.LR, "lsvr": core.LSVR, "rf": core.RF, "xgb": core.XGB} {
		d, err := medianOf(3, func() error {
			model, err := core.Build(alg, core.DefaultParams(alg), cfg.Seed)
			if err != nil {
				return err
			}
			return model.Fit(mid.x, mid.y)
		})
		if err != nil {
			return err
		}
		m["ml.fit_"+name+"_ms"] = ms(d)
	}
	return nil
}
