package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/obs"
)

// TestTrainMetricsWriteHistStats checks that the /metrics assembly
// carries the histogram split-engine counters and that training work
// actually moves them.
func TestTrainMetricsWriteHistStats(t *testing.T) {
	// Tally some synthetic engine work so the counters are provably
	// nonzero regardless of what other tests trained before us.
	ml.AddHistStats(&ml.HistStats{FillRows: 7, SubtractCells: 3, DirectNodes: 2, DerivedNodes: 1})

	m := newTrainMetrics()
	var w obs.TextWriter
	m.Write(&w)
	out := w.String()
	for _, name := range []string{
		"fleet_ml_hist_fill_rows_total",
		"fleet_ml_hist_fill_cells_total",
		"fleet_ml_hist_subtract_cells_total",
		"fleet_ml_hist_sweep_cells_total",
		"fleet_ml_hist_direct_nodes_total",
		"fleet_ml_hist_derived_nodes_total",
		"fleet_ml_hist_fill_seconds_total",
		"fleet_ml_hist_subtract_seconds_total",
		"fleet_ml_bin_builds_total",
		"fleet_ml_bin_reuses_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" counter") {
			t.Errorf("missing counter %s in exposition", name)
		}
	}
	if strings.Contains(out, "fleet_ml_hist_fill_rows_total 0\n") {
		t.Error("fill rows counter stayed zero despite tallied work")
	}
	if strings.Contains(out, "fleet_ml_hist_derived_nodes_total 0\n") {
		t.Error("derived nodes counter stayed zero despite tallied work")
	}
}

// TestTrainDurationCoversTheBuild: a snapshot's TrainDuration, which the
// retrain log and /admin/status report, spans the whole build — at
// least the plan, fit and snapshot stages the engine times, the
// snapshot's forecast precompute included.
func TestTrainDurationCoversTheBuild(t *testing.T) {
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), genFleet(t, 4, 700))
	if err != nil {
		t.Fatal(err)
	}
	var stages float64
	for _, stage := range []string{"plan", "fit", "snapshot"} {
		h := eng.metrics.stages.With(stage)
		if h.Count() != 1 {
			t.Fatalf("stage %s observed %d times in one build, want 1", stage, h.Count())
		}
		stages += h.Sum()
	}
	if got := snap.TrainDuration; got < time.Duration(stages*float64(time.Second)) {
		t.Fatalf("TrainDuration %v is less than the plan+fit+snapshot stages' %.9fs", got, stages)
	}
	if st := eng.Status(); st.TrainSeconds != snap.TrainDuration.Seconds() {
		t.Fatalf("status train_seconds %v, want the snapshot's %v", st.TrainSeconds, snap.TrainDuration.Seconds())
	}
}
