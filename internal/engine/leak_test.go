package engine

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestSupersededModelsDroppable is the leak guard for cross-generation
// model retention: snapshots deliberately retain their Models map so
// the next incremental build can reuse clean vehicles — but a model
// that was *replaced* (its vehicle retrained) must become unreachable
// once the superseding snapshot is published and no reader holds the
// old one. A retention regression anywhere on the reuse path
// (PriorGeneration, TrainPlan, TrainShared, the snapshot itself, the
// OnSnapshot hook) would keep every dead generation's models alive and
// grow memory without bound on a long-lived server.
func TestSupersededModelsDroppable(t *testing.T) {
	// One old vehicle one day short of completing a cycle: that day adds
	// labels, so its generation-1 model is superseded in generation 2
	// (everything else is reused and legitimately stays alive).
	fleet := mixedFleet(t)
	before, after := completeCycle(t, fleet[0], 18000)
	fleet[0] = before
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}

	dirtyID := fleet[0].Series.ID
	var collected atomic.Bool
	old := snap1.Models[dirtyID]
	if old == nil {
		t.Fatalf("no generation-1 model for %s", dirtyID)
	}
	runtime.SetFinalizer(old, func(any) { collected.Store(true) })
	old = nil

	changed := make([]Vehicle, len(fleet))
	copy(changed, fleet)
	changed[0] = after
	snap2, err := eng.Retrain(context.Background(), changed)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Models[dirtyID] == snap1.Models[dirtyID] {
		t.Fatalf("vehicle %s was not retrained; the test needs a superseded model", dirtyID)
	}

	// Drop every reference a reader could hold to generation 1 and give
	// the collector a few cycles (finalizers need one GC to queue and
	// another to run).
	snap1 = nil
	for i := 0; i < 10 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("superseded generation-1 model is still reachable after retrain; a reuse path retains dead models")
	}
}
