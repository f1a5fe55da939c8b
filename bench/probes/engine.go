package main

import (
	"context"
	"io"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml"
)

// probeEngine times engine.Retrain: once cold on the whole fleet, then
// incrementally after one old vehicle, and after one new vehicle,
// gained a day. It also records how many histogram nodes the cold train
// filled directly against how many it derived by subtraction — whether
// fleet-sized fits ever reach the row gates of the subtraction engine.
func probeEngine(pf *probeFleet, _ string, m metrics) error {
	eng, err := engine.New(engine.Config{
		Predictor: core.DefaultPredictorConfig(),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	fleet := append([]engine.Vehicle(nil), pf.prepared...)

	before := ml.HistStatsSnapshot()
	t0 := time.Now()
	if _, err := eng.Retrain(ctx, fleet); err != nil {
		return err
	}
	m["engine.cold_train_s"] = time.Since(t0).Seconds()
	after := ml.HistStatsSnapshot()
	m["ml.hist_direct_nodes"] = float64(after.DirectNodes - before.DirectNodes)
	m["ml.hist_derived_nodes"] = float64(after.DerivedNodes - before.DerivedNodes)

	dirty := func(candidates []int) (time.Duration, error) {
		k := 0
		return medianOf(min(5, max(1, len(candidates))), func() error {
			if len(candidates) == 0 {
				return nil
			}
			i := candidates[k%len(candidates)]
			k++
			v, err := pf.withExtraDay(i, 14400)
			if err != nil {
				return err
			}
			fleet[i] = v
			_, err = eng.Retrain(ctx, fleet)
			return err
		})
	}
	d, err := dirty(pf.old)
	if err != nil {
		return err
	}
	m["engine.retrain_old_dirty_ms"] = ms(d)
	if d, err = dirty(pf.fresh); err != nil {
		return err
	}
	m["engine.retrain_new_dirty_ms"] = ms(d)
	return nil
}
