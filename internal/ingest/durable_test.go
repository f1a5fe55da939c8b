package ingest

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataprep"
	"repro/internal/telematics"
	"repro/internal/wal"
)

func openDurable(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := OpenDurable(0, DurableOptions{Dir: dir, Fsync: wal.FsyncAlways, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// mustEqualStores asserts two stores hold identical content: vehicle
// sets, per-vehicle day ranges, content hashes and report counts, the
// dirty set, change sequence and counters. reports, when non-nil,
// replaces want's per-vehicle report counts (see reportModel).
func mustEqualStores(t testing.TB, got, want *Store, reports map[string]uint64, label string) {
	t.Helper()
	gv, wv := got.Vehicles(), want.Vehicles()
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d vehicles, want %d", label, len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("%s: vehicle[%d] = %s, want %s", label, i, gv[i], wv[i])
		}
		gh, _ := got.Hash(gv[i])
		wh, _ := want.Hash(wv[i])
		if gh != wh {
			t.Fatalf("%s: vehicle %s hash %x, want %x", label, gv[i], gh, wh)
		}
	}
	if got.Seq() != want.Seq() {
		t.Fatalf("%s: seq %d, want %d", label, got.Seq(), want.Seq())
	}
	gs, ws := got.Stats(), want.Stats()
	if gs.Accepted != ws.Accepted || gs.Rejected != ws.Rejected || gs.Changed != ws.Changed {
		t.Fatalf("%s: counters accepted=%d/%d rejected=%d/%d changed=%d/%d",
			label, gs.Accepted, ws.Accepted, gs.Rejected, ws.Rejected, gs.Changed, ws.Changed)
	}
	for i, g := range gs.PerVehicle {
		w := ws.PerVehicle[i]
		if reports != nil {
			w.Reports = reports[w.ID]
		}
		// LastReport is the wall-clock receipt time: a replay stamps
		// its own.
		g.LastReport, w.LastReport = "", ""
		if g != w {
			t.Fatalf("%s: per-vehicle stats %+v, want %+v", label, g, w)
		}
	}
	if gd, wd := got.DirtySince(0, nil), want.DirtySince(0, nil); !reflect.DeepEqual(gd, wd) {
		t.Fatalf("%s: DirtySince(0) = %v, want %v", label, gd, wd)
	}
}

// reportModel predicts a durable store's per-vehicle report counts. A
// live store counts every accepted report, but the journal keeps only
// the reports that changed content, so a recovery restores the count
// the checkpoint spilled plus the changed reports journaled after it —
// the re-deliveries since the checkpoint are not counted again.
type reportModel struct {
	live, ckpt, journaled map[string]uint64
}

func newReportModel() *reportModel {
	return &reportModel{live: map[string]uint64{}, ckpt: map[string]uint64{}, journaled: map[string]uint64{}}
}

func (m *reportModel) batch(res BatchResult) {
	for id, vr := range res.Vehicles {
		m.live[id] += uint64(vr.Accepted)
		m.journaled[id] += uint64(vr.Changed)
	}
}

func (m *reportModel) checkpoint() {
	m.ckpt = maps.Clone(m.live)
	m.journaled = map[string]uint64{}
}

func (m *reportModel) recover() {
	m.live = maps.Clone(m.ckpt)
	for id, n := range m.journaled {
		m.live[id] += n
	}
}

// TestDurableKillAfterAckProperty: randomized batches (overwrites,
// redeliveries, rejects) against a durable store, with a simulated
// kill -9 (reopen without Close) between every round. Every
// acknowledged batch must be fully visible after every recovery —
// store content, hashes, day ranges, dirty set, Seq and counters all
// match an in-memory reference that never crashed. The mix also covers
// one (vehicle, day) twice with different values in one batch, batches
// that only re-deliver stored values, and vehicles first seen after a
// checkpoint.
func TestDurableKillAfterAckProperty(t *testing.T) {
	dir := t.TempDir()
	rnd := rand.New(rand.NewSource(11))
	ref := New(0)
	model := newReportModel()
	type key struct {
		id  string
		day int
	}
	stored := map[key]float64{} // the reference's content, for re-deliveries
	var keys []key              // stored's keys in first-write order
	var sameDayTwice, redeliveries, lateVehicles int
	checkpointed := false

	for gen := 0; gen < 6; gen++ {
		s := openDurable(t, dir)
		mustEqualStores(t, s, ref, model.live, "after recovery")

		for b := 0; b < 3+rnd.Intn(4); b++ {
			var batch []Report
			switch kind := rnd.Intn(4); {
			case kind == 0 && len(keys) > 0:
				// Re-deliver stored values only: accepted, nothing changes.
				for i := 0; i < 1+rnd.Intn(10); i++ {
					k := keys[rnd.Intn(len(keys))]
					batch = append(batch, report(k.id, k.day, stored[k]))
				}
				redeliveries++
			default:
				for i := 0; i < 1+rnd.Intn(25); i++ {
					r := report(
						[]string{"v01", "v02", "v03", "v04"}[rnd.Intn(4)],
						rnd.Intn(60),
						float64(rnd.Intn(30000)),
					)
					if rnd.Intn(10) == 0 {
						r.Seconds = -1 // rejected row
					}
					batch = append(batch, r)
				}
				if kind == 1 {
					// The same (vehicle, day) twice, different values.
					first := batch[0]
					first.Seconds = float64(30000 + rnd.Intn(1000))
					second := first
					second.Seconds++
					batch = append(batch, first, second)
					sameDayTwice++
				}
			}
			if checkpointed {
				// A vehicle the checkpoint has never seen.
				lateVehicles++
				batch = append(batch, report(fmt.Sprintf("late%02d", lateVehicles), rnd.Intn(60), float64(rnd.Intn(30000))))
				checkpointed = false
			}
			res, err := s.UpsertBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			refRes, _ := ref.UpsertBatch(batch)
			if res.Accepted != refRes.Accepted || res.Changed != refRes.Changed || res.Rejected != refRes.Rejected {
				t.Fatalf("durable result %+v, reference %+v", res, refRes)
			}
			model.batch(res)
			for _, r := range batch {
				if r.Seconds < 0 {
					continue
				}
				k := key{r.VehicleID, int(epochDay(r.Date) - epochDay(day0))}
				if _, ok := stored[k]; !ok {
					keys = append(keys, k)
				}
				stored[k] = r.Seconds
			}
			// Occasionally checkpoint+compact mid-stream: recovery must
			// be seamless across the checkpoint boundary.
			if rnd.Intn(4) == 0 {
				if _, err := s.CheckpointAndCompact(); err != nil {
					t.Fatal(err)
				}
				model.checkpoint()
				checkpointed = true
			}
		}
		// Kill: no Close. FsyncAlways means every acknowledged batch is
		// already journaled on disk.
		model.recover()
	}
	s := openDurable(t, dir)
	mustEqualStores(t, s, ref, model.live, "final recovery")
	if sameDayTwice == 0 || redeliveries == 0 || lateVehicles == 0 {
		t.Fatalf("event mix missed a case: same day twice %d, re-delivery batches %d, post-checkpoint vehicles %d",
			sameDayTwice, redeliveries, lateVehicles)
	}
}

// TestDurableReplayRestoresDerivedFleet: the recovered store's derived
// (prepared) fleet equals the pre-crash one — recovery is invisible to
// the training source.
func TestDurableReplayRestoresDerivedFleet(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.UpsertBatch([]Report{
		report("v01", 0, 18000), report("v01", 1, 17500), report("v01", 5, 16000),
		report("v02", 2, 9000),
	}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir)
	after, err := s2.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered fleet has %d vehicles, want %d", len(after), len(before))
	}
	for i := range before {
		if !after[i].Start.Equal(before[i].Start) {
			t.Fatalf("vehicle %d start drifted", i)
		}
		if len(after[i].Series.U) != len(before[i].Series.U) {
			t.Fatalf("vehicle %d span drifted", i)
		}
		for d := range before[i].Series.U {
			if after[i].Series.U[d] != before[i].Series.U[d] {
				t.Fatalf("vehicle %d day %d drifted", i, d)
			}
		}
	}
	if st := s2.Stats(); st.WAL == nil || st.WAL.ReplayRecords == 0 {
		t.Fatalf("recovery did not replay the journal: %+v", st.WAL)
	}
}

// TestDurableCorruptTailTruncation: a torn final journal frame (the
// crash hit mid-append, before the ack) loses exactly the unacked
// batch; every batch acknowledged before it survives, and the
// truncation is visible in the WAL stats.
func TestDurableCorruptTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.UpsertBatch([]Report{report("v01", 0, 1000), report("v01", 1, 2000)}); err != nil {
		t.Fatal(err)
	}
	ackedSeq := s.Seq()
	ackedHash, _ := s.Hash("v01")
	if _, err := s.UpsertBatch([]Report{report("v02", 0, 5000)}); err != nil {
		t.Fatal(err)
	}

	// Corrupt the final frame byte: the v02 batch becomes a torn,
	// never-acknowledged write.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir)
	if got := s2.Vehicles(); len(got) != 1 || got[0] != "v01" {
		t.Fatalf("recovered vehicles = %v, want [v01]", got)
	}
	if s2.Seq() != ackedSeq {
		t.Fatalf("recovered seq %d, want %d", s2.Seq(), ackedSeq)
	}
	if h, _ := s2.Hash("v01"); h != ackedHash {
		t.Fatalf("recovered hash %x, want %x", h, ackedHash)
	}
	st := s2.Stats()
	if st.WAL == nil || st.WAL.TruncatedTailEvents == 0 {
		t.Fatalf("tail truncation not surfaced in stats: %+v", st.WAL)
	}
}

// TestDurableCompactionSafety: CheckpointAndCompact only removes
// segments the checkpoint covers — content journaled before the
// checkpoint comes back from the checkpoint, content after it from the
// surviving WAL tail, and nothing is lost across a crash in between.
func TestDurableCompactionSafety(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	// Enough distinct days to span several 4 KiB segments.
	for b := 0; b < 20; b++ {
		var batch []Report
		for i := 0; i < 30; i++ {
			batch = append(batch, report("v01", b*30+i, float64(1000+b*30+i)))
		}
		if _, err := s.UpsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := s.Stats().WAL.Segments
	if segsBefore < 3 {
		t.Fatalf("want >= 3 segments before compaction, got %d", segsBefore)
	}

	res, err := s.CheckpointAndCompact()
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentsRemoved == 0 {
		t.Fatal("compaction removed nothing despite a full checkpoint")
	}
	st := s.Stats().WAL
	if st.Segments >= segsBefore {
		t.Fatalf("segments %d not reduced from %d", st.Segments, segsBefore)
	}
	if st.CheckpointIndex != res.WALIndex || st.CheckpointSeq != res.Seq {
		t.Fatalf("checkpoint stats %+v disagree with result %+v", st, res)
	}
	// Only covered segments may go: every surviving record is above the
	// checkpoint index (or in the active segment).
	if st.FirstIndex != 0 && st.FirstIndex <= st.CheckpointIndex {
		// Segments holding both covered and uncovered records legally
		// survive whole; what must never happen is a removed segment
		// with uncovered records — asserted below by full recovery.
		t.Logf("first surviving index %d <= checkpoint %d (mixed tail segment)", st.FirstIndex, st.CheckpointIndex)
	}

	// Post-checkpoint writes land in the surviving tail.
	if _, err := s.UpsertBatch([]Report{report("v02", 0, 7777)}); err != nil {
		t.Fatal(err)
	}
	preCrash := s.Seq()

	// Crash + recover: checkpoint restores the compacted history, the
	// WAL tail restores the rest.
	s2 := openDurable(t, dir)
	if s2.Seq() != preCrash {
		t.Fatalf("recovered seq %d, want %d", s2.Seq(), preCrash)
	}
	if got := s2.Vehicles(); len(got) != 2 {
		t.Fatalf("recovered vehicles = %v", got)
	}
	h1, _ := s.Hash("v01")
	h2, _ := s2.Hash("v01")
	if h1 != h2 {
		t.Fatalf("v01 hash %x, want %x", h2, h1)
	}
	// The v02 batch must have come from WAL replay, not the checkpoint.
	if st := s2.Stats().WAL; st.ReplayRecords == 0 {
		t.Fatal("post-checkpoint batch was not replayed from the WAL")
	}
}

// TestDurableCheckpointWithNothingNewIsNoOp: a checkpoint call with no
// batch journaled since the last one leaves the checkpoint file — bytes
// and SavedAt — as it was; the next journaled batch makes it write
// again.
func TestDurableCheckpointWithNothingNewIsNoOp(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	path := filepath.Join(dir, checkpointFile)
	if _, err := s.UpsertBatch([]Report{report("v01", 0, 1000)}); err != nil {
		t.Fatal(err)
	}
	first, err := s.CheckpointAndCompact()
	if err != nil {
		t.Fatal(err)
	}
	bytes1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck1, _, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // a rewrite would stamp a later SavedAt

	again, err := s.CheckpointAndCompact()
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("second checkpoint %+v, want %+v", again, first)
	}
	bytes2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck2, _, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(bytes2) != string(bytes1) || !ck2.savedAt.Equal(ck1.savedAt) {
		t.Fatalf("checkpoint rewritten with nothing new: SavedAt %v -> %v", ck1.savedAt, ck2.savedAt)
	}
	if got := s.Stats().WAL.LastCheckpoint; got != ck1.savedAt.UTC().Format(time.RFC3339Nano) {
		t.Fatalf("stats LastCheckpoint %s, want the first checkpoint's %v", got, ck1.savedAt)
	}

	if _, err := s.UpsertBatch([]Report{report("v01", 1, 1100)}); err != nil {
		t.Fatal(err)
	}
	third, err := s.CheckpointAndCompact()
	if err != nil {
		t.Fatal(err)
	}
	ck3, _, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if third.WALIndex <= first.WALIndex || ck3.walIndex != third.WALIndex || !ck3.savedAt.After(ck1.savedAt) {
		t.Fatalf("checkpoint after a journaled batch: %+v, file index %d saved %v", third, ck3.walIndex, ck3.savedAt)
	}
}

// TestOpenDurableRemovesStaleCheckpointTemps: a checkpoint writer killed
// before its deferred remove leaves a temp file; the next open deletes
// it and keeps the checkpoint itself.
func TestOpenDurableRemovesStaleCheckpointTemps(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.UpsertBatch([]Report{report("v01", 0, 1000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CheckpointAndCompact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, checkpointFile)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, checkpointFile+".tmp123456")
	if err := os.WriteFile(stale, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the open: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(want) {
		t.Fatalf("checkpoint changed by the open (err %v)", err)
	}
	if h, ok := s2.Hash("v01"); !ok || h == 0 {
		t.Fatal("reopened store lost v01")
	}
}

// TestDurableCheckpointOnInMemoryStore: the compaction hook degrades
// loudly, not silently, without a journal.
func TestDurableCheckpointOnInMemoryStore(t *testing.T) {
	s := New(0)
	if _, err := s.CheckpointAndCompact(); err == nil {
		t.Fatal("CheckpointAndCompact on an in-memory store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close on an in-memory store: %v", err)
	}
}

// TestDurableSeedRebootIsCheap: re-seeding the same CSV fleet after a
// reboot is a pure no-op — it must not re-journal the whole fleet,
// only a fixed-size acknowledgement record.
func TestDurableSeedRebootIsCheap(t *testing.T) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 3
	cfg.Days = 200
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, err := OpenDurable(cfg.Allowance, DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SeedFromFleet(fleet); err != nil {
		t.Fatal(err)
	}
	bytesAfterSeed := s.Stats().WAL.Bytes
	seqAfterSeed := s.Seq()
	s.Close()

	s2, err := OpenDurable(cfg.Allowance, DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != seqAfterSeed {
		t.Fatalf("reboot seq %d, want %d", s2.Seq(), seqAfterSeed)
	}
	res, err := s2.SeedFromFleet(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 0 {
		t.Fatalf("re-seed changed %d reports, want 0", res.Changed)
	}
	if grown := s2.Stats().WAL.Bytes - bytesAfterSeed; grown > 1024 {
		t.Fatalf("idempotent re-seed grew the WAL by %d bytes", grown)
	}
	if s2.Seq() != seqAfterSeed {
		t.Fatalf("re-seed advanced seq to %d", s2.Seq())
	}
}

// TestDurableCorrectionSurvivesReopen: an acknowledged report that
// corrects a seeded day is part of the recovered store. Seeding the
// same fleet again after the reopen reverts it — which is why
// fleetserver seeds only a store that recovered empty.
func TestDurableCorrectionSurvivesReopen(t *testing.T) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 3
	cfg.Days = 200
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.SeedFromFleet(fleet); err != nil {
		t.Fatal(err)
	}
	v := fleet.Vehicles[0]
	start, seeded, _ := s.RawSeries(v.Profile.ID)
	corrected := seeded[0] + 1
	res, err := s.UpsertBatch([]Report{{VehicleID: v.Profile.ID, Date: start, Seconds: corrected}})
	if err != nil || res.Changed != 1 {
		t.Fatalf("correction: res=%+v err=%v", res, err)
	}
	wantHash, _ := s.Hash(v.Profile.ID)
	wantSeq := s.Seq()
	s.Close()

	s2 := openDurable(t, dir)
	if h, _ := s2.Hash(v.Profile.ID); h != wantHash {
		t.Fatalf("reopened hash %x, want %x", h, wantHash)
	}
	if _, u, _ := s2.RawSeries(v.Profile.ID); u[0] != corrected {
		t.Fatalf("reopened day 0 = %v, want the correction %v", u[0], corrected)
	}
	if s2.Seq() != wantSeq {
		t.Fatalf("reopened seq %d, want %d", s2.Seq(), wantSeq)
	}
	if res, err := s2.SeedFromFleet(fleet); err != nil || res.Changed != 1 {
		t.Fatalf("re-seed after reopen: res=%+v err=%v, want exactly the correction reverted", res, err)
	}
}

// TestDurableDirtyBaselineAfterReplay: WAL replay restores Seq and the
// hashes, so DirtySince(bootSeq) is empty — a serve layer that
// baselines its retrain threshold at boot sees no phantom dirtiness
// from replayed batches (they are not "fresh" changes).
func TestDurableDirtyBaselineAfterReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.UpsertBatch([]Report{report("v01", 0, 1000), report("v02", 0, 2000)}); err != nil {
		t.Fatal(err)
	}

	s2 := openDurable(t, dir)
	if dirty := s2.DirtySince(s2.Seq(), nil); len(dirty) != 0 {
		t.Fatalf("replayed batches count as fresh dirtiness: %v", dirty)
	}
	// The replayed content is still reachable for a from-scratch plan.
	if dirty := s2.DirtySince(0, nil); len(dirty) != 2 {
		t.Fatalf("replayed vehicles invisible to DirtySince(0): %v", dirty)
	}
	// A genuinely fresh change after recovery is dirty as usual.
	mark := s2.Seq()
	if _, err := s2.UpsertBatch([]Report{report("v01", 1, 3000)}); err != nil {
		t.Fatal(err)
	}
	if dirty := s2.DirtySince(mark, nil); len(dirty) != 1 || dirty[0] != "v01" {
		t.Fatalf("fresh change dirty set = %v, want [v01]", dirty)
	}
}

// TestDurableRejectedCountersSurviveRestart: an all-rejected batch
// still journals its totals, so the accept/reject accounting is exact
// across a crash, not just the content.
func TestDurableRejectedCountersSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir)
	if _, err := s.UpsertBatch([]Report{report("v01", 0, 1000)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.UpsertBatch([]Report{report("v01", 1, -5), report("v02", 0, -9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 2 || res.Accepted != 0 {
		t.Fatalf("all-rejected batch result %+v", res)
	}
	want := s.Stats()

	s2 := openDurable(t, dir)
	got := s2.Stats()
	if got.Accepted != want.Accepted || got.Rejected != want.Rejected || got.Changed != want.Changed {
		t.Fatalf("recovered counters accepted=%d/%d rejected=%d/%d changed=%d/%d",
			got.Accepted, want.Accepted, got.Rejected, want.Rejected, got.Changed, want.Changed)
	}
}

// TestDurableConcurrentStatsCheckpointUpserts hammers Stats (mu then
// ckptMu paths), UpsertBatch (mu writer) and CheckpointAndCompact
// (ckptMu then mu) concurrently — under -race this pins the
// ckptMu-before-mu lock ordering; an inversion deadlocks and trips the
// watchdog below.
func TestDurableConcurrentStatsCheckpointUpserts(t *testing.T) {
	s := openDurable(t, t.TempDir())
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := s.UpsertBatch([]Report{report("v01", w*50+i, float64(1000+i))}); err != nil {
						t.Error(err)
						return
					}
					s.Stats()
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.CheckpointAndCompact(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stats/checkpoint/upsert hammer deadlocked")
	}
}

// TestDurableRejectsLongVehicleID: the journal's length-prefixed
// encoding bounds IDs; validation enforces it before anything lands.
func TestDurableRejectsLongVehicleID(t *testing.T) {
	s := New(0)
	res, err := s.UpsertBatch([]Report{{
		VehicleID: strings.Repeat("x", maxVehicleIDBytes+1),
		Date:      day0,
		Seconds:   100,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Accepted != 0 {
		t.Fatalf("oversized ID result %+v, want rejected", res)
	}
}

// replayRecord applies one journal record to s the way OpenDurable's
// replay does.
func replayRecord(s *Store, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := journalReplay{s: s, now: time.Now(), seq0: s.seq}
	err := r.apply(payload)
	r.finish()
	return err
}

// TestJournalRecordCodecRoundtrip pins the journal encoding against the
// replay walk: an encoded record applies to exactly the reports and
// counters it was built from, and every malformed shape errors.
func TestJournalRecordCodecRoundtrip(t *testing.T) {
	rec := journalRecord{
		Accepted: 7,
		Rejected: 3,
		Changed: []journalReport{
			{ID: "v01", Day: 16436, Seconds: 18000.5},
			{ID: "a-much-longer-vehicle-identifier", Day: minReportDay, Seconds: 0},
			{ID: "v01", Day: 16437, Seconds: 100},
			{ID: "v01", Day: 16437, Seconds: 100}, // no change: counts a report, not a seq step
		},
	}
	payload := encodeJournalRecord(rec)
	s := New(0)
	if err := replayRecord(s, payload); err != nil {
		t.Fatal(err)
	}
	ref := New(0)
	ref.mu.Lock()
	for _, jr := range rec.Changed {
		vrec := ref.vehicles[jr.ID]
		if vrec == nil {
			vrec = &vehicleRecord{}
			ref.vehicles[jr.ID] = vrec
		}
		if ref.upsertDayLocked(vrec, jr.Day, jr.Seconds, time.Now()) {
			ref.changed++
		}
	}
	ref.accepted, ref.rejected = uint64(rec.Accepted), uint64(rec.Rejected)
	ref.mu.Unlock()
	mustEqualStores(t, s, ref, nil, "replayed record")

	for _, c := range journalCodecErrors(payload) {
		if err := replayRecord(New(0), c.payload); err == nil {
			t.Errorf("%s: replay accepted a malformed record", c.name)
		}
	}
	// A day no door accepts would size a run without bound.
	for _, day := range []int64{minReportDay - 1, maxStoredDay + 1} {
		bad := encodeJournalRecord(journalRecord{Accepted: 1, Changed: []journalReport{{ID: "v01", Day: day, Seconds: 1}}})
		if err := replayRecord(New(0), bad); err == nil {
			t.Errorf("replay accepted day %d", day)
		}
	}
	for _, c := range badSecondsRecords() {
		if err := replayRecord(New(0), c.payload); err == nil {
			t.Errorf("%s: replay accepted a second no door accepts", c.name)
		}
	}
}

// badSecondsRecords are journal record payloads, one per second value
// every door refuses, each for day 1 of v01.
func badSecondsRecords() []codecCase {
	day := epochDay(day0) + 1
	var out []codecCase
	for _, c := range []struct {
		name string
		sec  float64
	}{
		{"seconds-nan", math.NaN()},
		{"seconds-negative", -1},
		{"seconds-over-max", dataprep.MaxDailySeconds + 1},
	} {
		out = append(out, codecCase{c.name, encodeJournalRecord(journalRecord{
			Accepted: 1,
			Changed:  []journalReport{{ID: "v01", Day: day, Seconds: c.sec}},
		})})
	}
	return out
}

// TestOpenDurableRefusesOutOfRangeSeconds: a CRC-valid journal record
// carrying a second that no door accepts fails the open, the way an
// out-of-range day does. Replaying it would land a value that Fleet
// serves and that the next checkpoint load refuses, so the store could
// not reopen once compaction dropped the segment.
func TestOpenDurableRefusesOutOfRangeSeconds(t *testing.T) {
	for _, c := range badSecondsRecords() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDurable(0, DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.UpsertBatch([]Report{report("v01", 0, 100), report("v01", 2, 200)}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := log.Append(c.payload); err != nil {
				t.Fatal(err)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenDurable(0, DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
			if err == nil {
				_, u, _ := s2.RawSeries("v01")
				s2.Close()
				t.Fatalf("open replayed the record: v01 holds %v", u)
			}
		})
	}
}

// codecCase is one named journal record payload.
type codecCase struct {
	name    string
	payload []byte
}

// journalCodecErrors derives every malformed record shape the replay
// walk must reject from one valid record.
func journalCodecErrors(valid []byte) []codecCase {
	withCount := func(count uint32, b []byte) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(out[9:], count)
		return out
	}
	count := binary.LittleEndian.Uint32(valid[9:]) // at least 2
	badVersion := append([]byte(nil), valid...)
	badVersion[0] = journalVersion + 1
	return []codecCase{
		{"empty", []byte{}},
		{"short-header", valid[:journalHead-1]},
		{"bad-version", badVersion},
		{"cut-id-length", valid[:journalHead+1]},
		{"cut-report", valid[:len(valid)-3]},
		{"trailing-byte", append(append([]byte(nil), valid...), 0)},
		{"count-too-large", withCount(count+1, valid)},
		{"count-ffffffff-short", withCount(0xFFFFFFFF, valid[:journalHead+4])},
		{"count-too-small", withCount(count-1, valid)},
		{"count-one-no-report", withCount(1, valid[:journalHead])},
		{"count-zero-excess", withCount(0, valid)},
	}
}
