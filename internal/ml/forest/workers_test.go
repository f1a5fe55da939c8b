package forest

import (
	"runtime"
	"testing"
)

// TestWorkersBitIdentical pins the across-tree pool: the fitted forest
// must be bit-identical whatever the pool width (GOMAXPROCS), from one
// goroutine up to more goroutines than trees.
func TestWorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("large dataset")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	x, y := pinDataset(3000, 4, 11)
	var ref []float64
	for _, workers := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		m := New(Config{NEstimators: 4, MaxDepth: 8, MinSamplesLeaf: 2, Seed: 7})
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		pred := m.PredictBatch(x)
		if ref == nil {
			ref = pred
			continue
		}
		for i := range pred {
			if pred[i] != ref[i] {
				t.Fatalf("workers=%d: prediction %d: %v != serial %v", workers, i, pred[i], ref[i])
			}
		}
	}
}
