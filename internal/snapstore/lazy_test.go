package snapstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/ml"
)

// modelTable returns the bytes of a spill from its model table's count
// to its CRC: everything after the rows.
func modelTable(t *testing.T, data []byte) []byte {
	t.Helper()
	snap, d, err := decodeRows(data, "shard00")
	if err != nil || snap == nil {
		t.Fatalf("decoding rows: %v", err)
	}
	rest := d.Bytes(d.Len())
	if rest == nil {
		t.Fatal("no model table after the rows")
	}
	return rest
}

// TestVersion2SpillRestoresCoveringNothing: a version 2 spill
// (testdata/version2.snap, written by that format's encoder for the
// test fleet) restores as covering sequence 0, its model table is the
// one this build writes for the same generation, byte for byte, and the
// reconcile after its restore reuses every model while it hashes and
// forecasts every vehicle.
func TestVersion2SpillRestoresCoveringNothing(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "version2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(v2[len(magic):]); got != versionNoCover {
		t.Fatalf("testdata/version2.snap is version %d", got)
	}
	v3 := spillBytes(t)
	if !bytes.Equal(modelTable(t, v2), modelTable(t, v3)) {
		t.Fatal("the model table of a version 3 spill differs from that version 2 wrote for the same generation")
	}

	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "shard00.snap"), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := store.LoadRows("shard00")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Snapshot.Covered != 0 || rows.Snapshot.Olds != 0 {
		t.Fatalf("version 2 spill covers %d with %d olds, want 0 and 0", rows.Snapshot.Covered, rows.Snapshot.Olds)
	}
	fleet := testFleet(t)
	for i := range fleet {
		fleet[i].Seq = 1 // every vehicle unchanged since sequence 1 > 0
	}
	eng, err := engine.New(engine.Config{
		Predictor: testConfig(),
		Workers:   1,
		Source:    func(context.Context) ([]engine.Vehicle, error) { return fleet, nil },
		Seq:       func() uint64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := eng.Restore(rows.Snapshot, rows.LazyModels, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.Retrained != 0 || snap.Reused != len(fleet) || snap.Predicted != len(fleet) {
		t.Fatalf("reconcile of a version 2 spill: retrained %d reused %d predicted %d, want 0, %d, %d",
			snap.Retrained, snap.Reused, snap.Predicted, len(fleet), len(fleet))
	}
	if snap.Covered != 1 || snap.Olds != 3 {
		t.Fatalf("the reconcile covers %d with %d olds, want 1 and 3", snap.Covered, snap.Olds)
	}
}

// TestRespillBeforeAndAfterDecodeSameTable: a restored generation
// spilled before any model decodes (its models copy the bytes they were
// read from) and again after every model decoded (they encode
// themselves) writes the same model table, byte for byte, as the spill
// it was restored from.
func TestRespillBeforeAndAfterDecodeSameTable(t *testing.T) {
	orig := spillBytes(t)
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Dir(), "shard00.snap")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := store.LoadRows("shard00")
	if err != nil {
		t.Fatal(err)
	}
	models, err := rows.LazyModels()
	if err != nil {
		t.Fatal(err)
	}
	snap := rows.Snapshot
	snap.Models = models
	respill := func() []byte {
		if err := store.Save("shard00", snap); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := respill()
	if n := rows.Decoded(); n != 0 {
		t.Fatalf("a spill of the restored generation decoded %d models", n)
	}
	for _, m := range models {
		if err := m.(interface{ Decode() error }).Decode(); err != nil {
			t.Fatal(err)
		}
	}
	after := respill()
	want := modelTable(t, orig)
	if !bytes.Equal(modelTable(t, before), want) || !bytes.Equal(modelTable(t, after), want) {
		t.Fatal("re-spilling the restored generation changed its model table")
	}
}

// TestLazyModelsDecodeOnceAndPredictAsLoaded: every lazily decoded model
// predicts what Load's eagerly decoded one does, decodes once under
// concurrent first use, and vehicles that shared a model share one.
func TestLazyModelsDecodeOnceAndPredictAsLoaded(t *testing.T) {
	store := spill(t, "shard00")
	eager, err := store.Load("shard00")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := store.LoadRows("shard00")
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := rows.LazyModels()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Models(); err == nil {
		t.Fatal("a second table call succeeded")
	}
	x := []float64{0.5, 0.1, 0.2, 0.3}
	var wg sync.WaitGroup
	got := make(map[string]float64)
	var mu sync.Mutex
	for id, m := range lazy {
		for range 4 {
			wg.Add(1)
			go func(id string, m ml.Regressor) {
				defer wg.Done()
				p := m.Predict(x)
				mu.Lock()
				got[id] = p
				mu.Unlock()
			}(id, m)
		}
	}
	wg.Wait()
	for id, m := range eager.Models {
		if got[id] != m.Predict(x) {
			t.Errorf("%s: lazy model predicts %v, the loaded one %v", id, got[id], m.Predict(x))
		}
		for other, o := range eager.Models {
			if (m == o) != (lazy[id] == lazy[other]) {
				t.Errorf("%s and %s share a loaded model: %v, a lazy one: %v", id, other, m == o, lazy[id] == lazy[other])
			}
		}
	}
}
