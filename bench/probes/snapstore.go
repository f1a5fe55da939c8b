package main

import (
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snapstore"
)

// probeSnapstore times the spill of one generation of the fleet and its
// load, and records the spill's size per vehicle.
func probeSnapstore(pf *probeFleet, dir string, m metrics) error {
	eng, err := engine.New(engine.Config{
		Predictor: core.DefaultPredictorConfig(),
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return err
	}
	snap, err := eng.Retrain(context.Background(), pf.prepared)
	if err != nil {
		return err
	}
	store, err := snapstore.New(filepath.Join(dir, "snap"))
	if err != nil {
		return err
	}
	d, err := medianOf(3, func() error { return store.Save("probe", snap) })
	if err != nil {
		return err
	}
	m["snapstore.save_ms"] = ms(d)
	if fi, err := os.Stat(filepath.Join(store.Dir(), "probe.snap")); err == nil {
		m["snapstore.bytes_per_vehicle"] = float64(fi.Size()) / float64(len(pf.prepared))
	}
	d, err = medianOf(3, func() error {
		_, err := store.Load("probe")
		return err
	})
	if err != nil {
		return err
	}
	m["snapstore.load_ms"] = ms(d)
	return nil
}
