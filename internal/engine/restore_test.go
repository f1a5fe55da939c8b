package engine_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/snapstore"
	"repro/internal/wal"
)

// These tests restart a server in-process: telemetry is journaled by a
// durable ingest.Store, every generation is spilled by snapstore as the
// fleetserver's spill hook does, and a "kill" abandons the store and
// the engine and reopens both directories, so the restart sees exactly
// what a SIGKILL leaves on disk (the journal is written, not buffered,
// before a batch is acknowledged).

const restoreShard = "shard00"

// node is one server process: a store over walDir and an engine that
// spills to snaps and, while checkpoint is set, checkpoints the store
// after each spill.
type node struct {
	store      *ingest.Store
	eng        *engine.Engine
	checkpoint bool
	// onSpill, when set, runs after each spill (and checkpoint).
	onSpill func(*engine.Snapshot)
}

func openNode(t *testing.T, walDir string, snaps *snapstore.Store) *node {
	t.Helper()
	store, err := ingest.OpenDurable(600_000, ingest.DurableOptions{Dir: walDir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	n := &node{store: store, checkpoint: true}
	n.eng, err = engine.New(engine.Config{
		Predictor: storeConfig(),
		Workers:   2,
		Source:    store.Fleet,
		Seq:       store.Seq,
		OnSnapshot: func(snap *engine.Snapshot) {
			if err := snaps.Save(restoreShard, snap); err != nil {
				t.Error(err)
				return
			}
			if n.checkpoint {
				if _, err := store.CheckpointAndCompact(); err != nil {
					t.Error(err)
				}
			}
			if n.onSpill != nil {
				n.onSpill(snap)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// restart kills n (its store and engine are abandoned, not closed) and
// boots a node on the same directories the way the fleetserver does: the
// WAL replays, the spill's rows are restored with its lazily decoded
// model table, and the reconcile runs. It returns the new node and the
// spill's rows once the restore has ended.
func restart(t *testing.T, walDir string, snaps *snapstore.Store, onSpill func(*snapstore.Rows, *engine.Snapshot)) (*node, *snapstore.Rows) {
	t.Helper()
	n := openNode(t, walDir, snaps)
	rows, err := snaps.LoadRows(restoreShard)
	if err != nil {
		t.Fatal(err)
	}
	if onSpill != nil {
		n.onSpill = func(snap *engine.Snapshot) { onSpill(rows, snap) }
	}
	done, err := n.eng.Restore(rows.Snapshot, rows.LazyModels, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	n.onSpill = nil
	return n, rows
}

// seed writes seedStore's fleet into a fresh durable node and publishes
// (and spills) its first generation.
func seed(t *testing.T) (walDir string, snaps *snapstore.Store, n *node, days map[string]int) {
	t.Helper()
	walDir = t.TempDir()
	snaps, err := snapstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n = openNode(t, walDir, snaps)
	mem, days := seedStore(t)
	fleetReports := make([]ingest.Report, 0)
	for _, id := range mem.Vehicles() {
		start, u, _ := mem.RawSeries(id)
		for d, sec := range u {
			fleetReports = append(fleetReports, ingest.Report{VehicleID: id, Date: start.AddDate(0, 0, d), Seconds: sec})
		}
	}
	upsert(t, n.store, fleetReports...)
	if _, err := n.eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	return walDir, snaps, n, days
}

// storeSeqs returns the store's sequence and every vehicle's last
// change sequence.
func storeSeqs(store *ingest.Store) (uint64, map[string]uint64) {
	seqs := make(map[string]uint64)
	for _, id := range store.Vehicles() {
		seqs[id], _ = store.VehicleSeq(id)
	}
	return store.Seq(), seqs
}

// TestRestoreKillBetweenSpillAndCheckpointKeepsSequences checks what a
// restored generation's coverage rests on: a kill after a spill's
// rename and before the checkpoint that follows it leaves a WAL whose
// replay reproduces the store sequence and every vehicle's last change
// sequence of the uninterrupted run, so a sequence the spill covers
// names the same telemetry after the restart.
func TestRestoreKillBetweenSpillAndCheckpointKeepsSequences(t *testing.T) {
	walDir, snaps, n, days := seed(t)
	upsert(t, n.store, report("v01", days["v01"], 21000), report("v02", 3, 9000), report("v06", 0, 12000))
	n.checkpoint = false // the kill lands between the rename and the checkpoint
	spilt, err := n.eng.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	upsert(t, n.store, report("v03", days["v03"], 15000), report("v01", 7, 100))
	wantSeq, want := storeSeqs(n.store)

	reopened := openNode(t, walDir, snaps)
	gotSeq, got := storeSeqs(reopened.store)
	if gotSeq != wantSeq || !maps.Equal(got, want) {
		t.Fatalf("replayed store: seq %d, vehicles %v; the uninterrupted run: seq %d, vehicles %v", gotSeq, got, wantSeq, want)
	}
	rows, err := snaps.LoadRows(restoreShard)
	if err != nil {
		t.Fatal(err)
	}
	if c := rows.Snapshot.Covered; c != spilt.Covered || c == 0 || c > gotSeq {
		t.Fatalf("spill covers sequence %d, its build %d, the replayed store is at %d", c, spilt.Covered, gotSeq)
	}
}

// TestRestoreReconcileMatchesFullProperty: random post-spill telemetry —
// tail days, cycle completions, first-cycle corrections, new vehicles —
// then a kill and a restart, over and over. Each reconcile carries the
// vehicles the store did not change since the spill without hashing,
// decoding or predicting them, and must still publish exactly what
// RetrainFull builds from the recovered store: statuses, forecasts,
// errors, model keys and the pool key.
func TestRestoreReconcileMatchesFullProperty(t *testing.T) {
	walDir, snaps, n, days := seed(t)
	ref, err := engine.New(engine.Config{Predictor: storeConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rng.New(56)
	ids := []string{"v01", "v02", "v03", "v04", "v05"}
	for step := 0; step < 16; step++ {
		var events []string
		for e := 0; e < 1+rnd.Intn(3); e++ {
			id := ids[rnd.Intn(len(ids))]
			switch k := rnd.Intn(10); {
			case k < 4:
				events = append(events, "tail day on "+id)
				upsert(t, n.store, report(id, days[id], math.Round(30000*rnd.Float64())))
				days[id]++
			case k < 6:
				events = append(events, "cycle completed on "+id)
				var rs []ingest.Report
				for d := 0; d < 25; d++ {
					rs = append(rs, report(id, days[id]+d, 30000))
				}
				upsert(t, n.store, rs...)
				days[id] += 25
			case k < 8:
				d := rnd.Intn(min(days[id], 40))
				events = append(events, fmt.Sprintf("day %d of %s rewritten", d, id))
				upsert(t, n.store, report(id, d, math.Round(30000*rnd.Float64())))
			default:
				id = fmt.Sprintf("w%02d", len(ids))
				events = append(events, id+" joins")
				ids = append(ids, id)
				days[id] = 5 + rnd.Intn(30)
				var rs []ingest.Report
				for d := 0; d < days[id]; d++ {
					rs = append(rs, report(id, d, math.Round(25000*rnd.Float64())))
				}
				upsert(t, n.store, rs...)
			}
		}
		// Sometimes a build spills part of the telemetry before the kill,
		// sometimes without the checkpoint after it.
		n.checkpoint = rnd.Intn(3) > 0
		if rnd.Intn(2) == 0 {
			if _, err := n.eng.RetrainFromSource(context.Background()); err != nil {
				t.Fatal(err)
			}
			upsert(t, n.store, report(ids[0], days[ids[0]], 1000))
			days[ids[0]]++
			events = append(events, "spill, then a tail day on "+ids[0])
		}

		n, _ = restart(t, walDir, snaps, nil)
		label := fmt.Sprintf("step %d (%v)", step, events)
		got := n.eng.Snapshot()
		fleet, err := n.store.Fleet(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RetrainFull(context.Background(), fleet)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, label, got, want)
		if !maps.Equal(got.ModelKeys, want.ModelKeys) || got.PoolHash != want.PoolHash ||
			!maps.Equal(got.FailedVehicles, want.FailedVehicles) || len(got.ForecastErrors) != len(want.ForecastErrors) {
			t.Fatalf("%s: keys %v pool %x failed %v, want RetrainFull's %v %x %v", label,
				got.ModelKeys, got.PoolHash, got.FailedVehicles, want.ModelKeys, want.PoolHash, want.FailedVehicles)
		}
	}
}

// TestRestoreReconcileDecodesOnlyChanged: three old vehicles report a
// tail day after the spill; the reconcile predicts those three, retrains
// nothing and, by its publish, has decoded only their three models. The
// warm pass then decodes the rest, and the spill the reconcile wrote
// restores the same rows.
func TestRestoreReconcileDecodesOnlyChanged(t *testing.T) {
	walDir, snaps, n, days := seed(t)
	spilt := n.eng.Snapshot()
	upsert(t, n.store, report("v01", days["v01"], 1), report("v02", days["v02"], 2), report("v03", days["v03"], 3))

	decodedAtPublish := -1
	n, rows := restart(t, walDir, snaps, func(rows *snapstore.Rows, _ *engine.Snapshot) { decodedAtPublish = rows.Decoded() })
	snap := n.eng.Snapshot()
	if snap.Predicted != 3 || snap.Retrained != 0 || snap.PoolChanged || decodedAtPublish != 3 {
		t.Fatalf("reconcile predicted %d retrained %d pool_changed %v decoded %d models by its publish, want 3, 0, false, 3",
			snap.Predicted, snap.Retrained, snap.PoolChanged, decodedAtPublish)
	}
	distinct := make(map[ml.Regressor]bool)
	for _, m := range spilt.Models {
		distinct[m] = true
	}
	if got := rows.Decoded(); got != len(distinct) {
		t.Fatalf("after the warm pass %d of %d models are decoded", got, len(distinct))
	}
	for _, id := range []string{"v04", "v05"} {
		if snap.ForecastByID[id] != spilt.ForecastByID[id] {
			t.Fatalf("%s: forecast %+v, want the carried %+v", id, snap.ForecastByID[id], spilt.ForecastByID[id])
		}
	}
	again, _ := restart(t, walDir, snaps, nil)
	sameRows(t, "restart of the reconcile's spill", again.eng.Snapshot(), snap)
	if p := again.eng.Snapshot().Predicted; p != 0 {
		t.Fatalf("a restart with nothing reported since the spill predicted %d vehicles", p)
	}
}

// TestRestoreUndecodableBodyRetrainsItsVehicle: two model bodies that
// their family refuses, behind a valid CRC. The restore does not fail.
// v01, reported since the spill, has its model decoded before the plan
// and retrains in the reconcile; v02, unchanged, is carried by the
// reconcile, dropped by the warm pass and retrained by the next build,
// which then serves exactly what RetrainFull serves.
func TestRestoreUndecodableBodyRetrainsItsVehicle(t *testing.T) {
	walDir, snaps, n, days := seed(t)
	spilt := n.eng.Snapshot()
	path := filepath.Join(snaps.Dir(), restoreShard+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"v01", "v02"} {
		enc, err := spilt.Models[id].(interface{ AppendBinary([]byte) ([]byte, error) }).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, enc)
		if at < 0 {
			t.Fatalf("%s's model is not in the spill", id)
		}
		data[at+len(enc)-1] = 7 // the linear model's fitted flag: neither 0 nor 1
	}
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	upsert(t, n.store, report("v01", days["v01"], 5000))

	n, _ = restart(t, walDir, snaps, nil)
	snap := n.eng.Snapshot()
	if snap.Retrained != 1 || snap.StatusByID["v01"].Err != "" {
		t.Fatalf("reconcile retrained %d (v01 status %+v), want v01 alone", snap.Retrained, snap.StatusByID["v01"])
	}
	if m, ok := snap.Models["v02"]; ok {
		t.Fatalf("v02 still holds its undecodable model %T after the warm pass", m)
	}
	next, err := n.eng.RetrainFromSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if next.Retrained != 1 || next.Predicted != 1 {
		t.Fatalf("the build after the warm pass retrained %d predicted %d, want v02 alone", next.Retrained, next.Predicted)
	}
	fleet, err := n.store.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New(engine.Config{Predictor: storeConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RetrainFull(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "after the undecodable models retrained", next, want)
}

// copyDir copies every file of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRestoreOntoShorterHistoryCoversNothing: a spill restored onto a
// store whose sequence is below the spill's coverage (its journal lost
// the tail the spill had seen) covers nothing. v01's tail day is in the
// spill but not in the store; adopting v01 by its sequence would carry
// the spilled forecast of a day the store no longer holds.
func TestRestoreOntoShorterHistoryCoversNothing(t *testing.T) {
	walDir, snaps, n, days := seed(t)
	n.store.Close()
	lost := copyDir(t, walDir) // the journal as of the first spill
	n = openNode(t, walDir, snaps)
	upsert(t, n.store, report("v01", days["v01"], 22000))
	if _, err := n.eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}

	n, _ = restart(t, lost, snaps, nil)
	fleet, err := n.store.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New(engine.Config{Predictor: storeConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RetrainFull(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	got := n.eng.Snapshot()
	sameRows(t, "restore onto a shorter history", got, want)
	if got.Predicted != len(got.Statuses) {
		t.Fatalf("the reconcile predicted %d of %d vehicles, want every one", got.Predicted, len(got.Statuses))
	}
}
