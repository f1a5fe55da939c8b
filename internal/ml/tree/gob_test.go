package tree

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// TestGobDecodesLegacyWorkerFields restores trees spilled before the
// intra-fit worker knobs left Config. The fixtures are the old
// encoder's bytes for the fits below with Workers = 1 (what every
// forest handed its member trees) and a subtree-fork depth of 3, so
// their Config carries two fields the current type lacks. gob skips
// them: the decoded tree must equal a fresh fit node for node.
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
	for _, bins := range []int{0, 64} {
		data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("legacy_tree_bins%d.gob", bins)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte("Workers")) {
			t.Fatalf("bins=%d: fixture lacks the legacy Workers field", bins)
		}
		var got Model
		if err := got.GobDecode(data); err != nil {
			t.Fatalf("bins=%d: %v", bins, err)
		}
		want := New(Config{MaxDepth: 9, MinSamplesLeaf: 2, MaxFeatures: 3, Seed: 17, Bins: bins})
		if err := want.FitWeighted(cm, y, w); err != nil {
			t.Fatal(err)
		}
		if got.Config != want.Config || !got.fitted || got.width != want.width || !nodesEqual(got.nodes, want.nodes) {
			t.Fatalf("bins=%d: decoded tree (%+v, %d nodes) differs from a fresh fit (%+v, %d nodes)",
				bins, got.Config, got.NodeCount(), want.Config, want.NodeCount())
		}
	}
}
