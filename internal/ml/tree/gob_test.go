package tree

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// TestGobDecodesLegacyWorkerFields restores a tree spilled before the
// intra-fit worker knobs left Config. The fixture is the old encoder's
// bytes for the fit below with Workers = 1 (what every forest handed
// its member trees) and a subtree-fork depth of 3, so its Config
// carries two fields the current type lacks. gob skips them: the
// decoded tree must equal a fresh fit node for node.
func TestGobDecodesLegacyWorkerFields(t *testing.T) {
	rnd := rng.New(31)
	x, y := randomDataset(rnd, 300, 4)
	w := make([]float64, len(y))
	for range w {
		w[rnd.Intn(len(w))]++
	}
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_tree_bins0.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("Workers")) {
		t.Fatal("fixture lacks the legacy Workers field")
	}
	var got Model
	if err := got.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	want := New(Config{MaxDepth: 9, MinSamplesLeaf: 2, MaxFeatures: 3, Seed: 17})
	if err := want.FitWeighted(cm, y, w); err != nil {
		t.Fatal(err)
	}
	if got.Config != want.Config || !got.fitted || got.width != want.width || !nodesEqual(got.nodes, want.nodes) {
		t.Fatalf("decoded tree (%+v, %d nodes) differs from a fresh fit (%+v, %d nodes)",
			got.Config, got.NodeCount(), want.Config, want.NodeCount())
	}
}
