package engine

import (
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/obs"
)

// TrainMetrics is the engine's training-time telemetry: wall-clock per
// pipeline stage and per (model family, search/fit) pair. It lives on
// the engine — not the snapshot — because it accumulates across
// generations; a scrape answers "where does retrain time go" without
// waiting for one to finish.
type TrainMetrics struct {
	// stages times the build pipeline: prep (source fetch), plan
	// (registration + reuse planning), fit (worker-pool training),
	// snapshot (freeze + forecast precompute), encode (snapshot file
	// write, observed by the snapshot saver).
	stages *obs.Family
	// models times the core training stages per algorithm family:
	// stage="search" is one candidate's validation evaluation, "fit" a
	// final/similarity/unified model fit (see core.StageObserver).
	models *obs.Family
	// retrains counts trained vehicles by why they trained: own_data,
	// pool_changed or full (core.TrainTask.Reason).
	retrains *obs.Family
	// unchanged counts kicked builds that equalled the live snapshot and
	// so published nothing.
	unchanged obs.Counter
}

func newTrainMetrics() *TrainMetrics {
	retrains := obs.NewCounterFamily("fleet_retrain_vehicles_total",
		"Vehicles trained, by why a build could not carry them forward.", "reason")
	for _, reason := range []string{core.ReasonOwnData, core.ReasonPoolChanged, core.ReasonFull} {
		retrains.CounterWith(reason) // exported from the first scrape, at 0
	}
	return &TrainMetrics{
		retrains: retrains,
		stages: obs.NewHistogramFamily("fleet_train_stage_seconds",
			"Wall-clock seconds per training pipeline stage.", obs.TrainBuckets, "stage"),
		models: obs.NewHistogramFamily("fleet_train_model_seconds",
			"Seconds spent training per model family and core stage.", obs.TrainBuckets, "family", "stage"),
	}
}

// ObserveStage records one pipeline-stage duration. Exported so the
// persistence layer can attribute snapshot-encode time to the same
// family the engine's own stages land in.
func (m *TrainMetrics) ObserveStage(stage string, t0 time.Time) {
	m.stages.With(stage).ObserveSince(t0)
}

// observer adapts the metrics into the core training hook.
func (m *TrainMetrics) observer() core.StageObserver {
	return func(stage string, alg core.Algorithm, seconds float64) {
		m.models.With(string(alg), stage).Observe(seconds)
	}
}

// Write renders the training histograms into w, followed by the
// process-wide histogram-engine work counters.
func (m *TrainMetrics) Write(w *obs.TextWriter) {
	m.stages.Write(w)
	m.models.Write(w)
	m.retrains.Write(w)
	w.CounterUint("fleet_retrain_unchanged_total",
		"Telemetry-kicked builds that equalled the live snapshot and published nothing.", m.unchanged.Value())
	writeHistStats(w)
}

// writeHistStats exposes the ml package's histogram split-engine
// accounting: how much work went into direct fills vs. parent−sibling
// subtraction, and how often quantile binnings were rebuilt vs. served
// from a matrix's cache. The subtract/fill cell ratio is the payoff of
// the subtraction trick; builds/reuses the payoff of sharing one binned
// layout across trees, boosting rounds and grid configurations.
func writeHistStats(w *obs.TextWriter) {
	hs := ml.HistStatsSnapshot()
	w.CounterUint("fleet_ml_hist_fill_rows_total",
		"Row-by-feature cell updates performed by direct histogram fills.", hs.FillRows)
	w.CounterUint("fleet_ml_hist_fill_cells_total",
		"Histogram cells written or zeroed by direct fills.", hs.FillCells)
	w.CounterUint("fleet_ml_hist_subtract_cells_total",
		"Histogram cells derived as parent minus sibling instead of refilled.", hs.SubtractCells)
	w.CounterUint("fleet_ml_hist_sweep_cells_total",
		"Histogram cells visited by split-gain sweeps.", hs.SweepCells)
	w.CounterUint("fleet_ml_hist_direct_nodes_total",
		"Tree nodes whose histogram was filled directly from rows.", hs.DirectNodes)
	w.CounterUint("fleet_ml_hist_derived_nodes_total",
		"Tree nodes whose histogram was derived by subtraction.", hs.DerivedNodes)
	w.Meta("fleet_ml_hist_fill_seconds_total", "Seconds spent in large-node histogram fills.", obs.KindCounter)
	w.Sample("fleet_ml_hist_fill_seconds_total", "", float64(hs.FillNanos)/1e9)
	w.Meta("fleet_ml_hist_subtract_seconds_total", "Seconds spent in large-node histogram subtractions.", obs.KindCounter)
	w.Sample("fleet_ml_hist_subtract_seconds_total", "", float64(hs.SubtractNanos)/1e9)
	w.CounterUint("fleet_ml_bin_builds_total",
		"Quantile binnings computed from column data.", ml.BinBuilds())
	w.CounterUint("fleet_ml_bin_reuses_total",
		"Bin requests served from a column matrix's cached layout.", ml.BinReuses())
}

// Metrics returns the engine's training-time telemetry, for the serve
// layer's /metrics assembly and the persistence hook's encode timing.
func (e *Engine) Metrics() *TrainMetrics { return e.metrics }
