package snapstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// FuzzSnapshotDecode hardens restore: arbitrary bytes as a shard's
// snapshot file must never panic either decode stage — LoadRows, then
// Rows.Models on whatever rows it accepted — and neither stage may
// allocate more than a constant factor of the file's size: every count
// in the format is checked against the bytes that remain before
// anything is sized from it. Each input is tried as is and with its
// CRC-32C recomputed, so mutations reach the decoder behind the
// checksum. Seeds under testdata/fuzz are a real spill of the test
// fleet, its truncations, a flipped bit, a version 1 file and a spill
// whose rows decode but whose tree model links a child backwards; the
// fuzzer mutates from there.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(spillBytes(f))
	f.Add(backwardLinkSpill(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(store.Dir(), "shard00.snap")
		for _, in := range [][]byte{data, withCRC(data)} {
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			// An error is a clean refusal; only panics and allocation count.
			var rows *Rows
			checkAlloc(t, "LoadRows", len(in), func() { rows, _ = store.LoadRows("shard00") })
			if rows != nil {
				checkAlloc(t, "Models", len(in), func() { _, _ = rows.Models() })
			}
		}
	})
}

// checkAlloc runs one decode stage of an n-byte file and fails t when
// the stage allocated more than maxLoadAlloc(n).
func checkAlloc(t *testing.T, stage string, n int, run func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxLoadAlloc(n) {
		t.Fatalf("%s of %d bytes allocated %d bytes, over the %d bound", stage, n, alloc, maxLoadAlloc(n))
	}
}

// maxLoadAlloc bounds what one decode stage may allocate for a file of
// n bytes: the read buffer, decoded values at most a few times the size
// of their encoding (a map entry or slice header per minimum-size
// record), and a fixed allowance for opening the file.
func maxLoadAlloc(n int) uint64 { return uint64(16*n + 64<<10) }

// withCRC returns data with its trailing 4 bytes replaced by the
// CRC-32C of everything before them (data itself when it is too short
// to hold a checksum).
func withCRC(data []byte) []byte {
	if len(data) < crcSize {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-crcSize]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

// spillBytes returns the file Save writes for the test fleet under
// shard00.
func spillBytes(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(spill(tb, "shard00").Dir(), "shard00.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// backwardLinkSpill returns the shard00 spill of one vehicle served by
// a fitted regression tree, with the left-child link of the tree's
// second split rewritten to point back at the root and the CRC fixed
// up: its rows decode, its model table does not.
func backwardLinkSpill(tb testing.TB) []byte {
	tb.Helper()
	x, y := synthXY(60, 3)
	m := tree.New(tree.Config{MaxDepth: 4})
	if err := m.Fit(x, y); err != nil {
		tb.Fatal(err)
	}
	enc, err := m.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	snap := &engine.Snapshot{
		Statuses:  []core.VehicleStatus{{ID: "v01", Category: core.Old, Strategy: "own", Algorithm: core.RF}},
		Models:    map[string]ml.Regressor{"v01": m},
		ModelKeys: map[string]uint64{"v01": 1},
	}
	store, err := New(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	if err := store.Save("shard00", snap); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(store.Dir(), "shard00.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	// The tree codec's layout: six 8-byte fields and a bool, the node
	// count, every node's feature (4 bytes) and value (8 bytes), then
	// each split's threshold (8 bytes) and child links (4 bytes each).
	at := bytes.Index(data, enc)
	if at < 0 {
		tb.Fatal("the tree's encoding is not in the spill")
	}
	const head = 6*8 + 1
	n := int(binary.LittleEndian.Uint32(data[at+head:]))
	features := at + head + 4
	splits := features + 12*n
	for i, rank := 0, 0; i < n; i++ {
		if int32(binary.LittleEndian.Uint32(data[features+4*i:])) < 0 {
			continue
		}
		if rank == 1 {
			binary.LittleEndian.PutUint32(data[splits+16*rank+8:], 0) // node i's left child: the root
			return withCRC(data)
		}
		rank++
	}
	tb.Fatal("the tree has fewer than two splits")
	return nil
}

// TestModelStageRefusesBackwardLink: a CRC-valid spill whose tree
// links a child backwards passes the rows stage with its rows intact
// and is refused by the model stage, which Load therefore refuses too.
func TestModelStageRefusesBackwardLink(t *testing.T) {
	store, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "shard00.snap"), backwardLinkSpill(t), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := store.LoadRows("shard00")
	if err != nil {
		t.Fatalf("rows stage refused a CRC-valid file: %v", err)
	}
	if st := rows.Snapshot.Statuses; len(st) != 1 || st[0].ID != "v01" || rows.Snapshot.Models != nil {
		t.Fatalf("rows stage decoded %+v (models %v), want v01's row and no models", st, rows.Snapshot.Models)
	}
	if _, err := rows.Models(); err == nil || !strings.Contains(err.Error(), "tree: node") {
		t.Fatalf("model stage: err = %v, want the tree's link refused", err)
	}
	if _, err := store.Load("shard00"); err == nil {
		t.Fatal("Load accepted a model table the model stage refuses")
	}
}
