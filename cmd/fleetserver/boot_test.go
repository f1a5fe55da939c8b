package main

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/snapstore"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// TestWaitForTelemetryAtBoot pins the cold-boot policy. The regression
// case is the third row: a partitioned (-join) shard whose store is
// empty — because the ring assigned it no vehicles, or because it boots
// without a seed CSV — must NOT wait for telemetry. It cold-trains
// eagerly so the donor exchange yields an empty+donors snapshot and the
// cluster's readiness does not hang on it until the retrain interval.
func TestWaitForTelemetryAtBoot(t *testing.T) {
	cases := []struct {
		name           string
		liveIngest     bool
		storedVehicles int
		partitioned    bool
		want           bool
	}{
		{"csv mode never waits", false, 0, false, false},
		{"standalone live empty store waits", true, 0, false, true},
		{"partitioned live empty store trains eagerly", true, 0, true, false},
		{"standalone live seeded store trains", true, 12, false, false},
		{"partitioned live seeded store trains", true, 12, true, false},
	}
	for _, tc := range cases {
		if got := waitForTelemetryAtBoot(tc.liveIngest, tc.storedVehicles, tc.partitioned); got != tc.want {
			t.Errorf("%s: waitForTelemetryAtBoot(%v, %d, %v) = %v, want %v",
				tc.name, tc.liveIngest, tc.storedVehicles, tc.partitioned, got, tc.want)
		}
	}
}

// TestSeedStoreOnlyWhenEmpty pins the seed-once rule: -data seeds a
// live store only when it recovered empty. The regression case is the
// correction row: re-seeding at every boot reverted an acknowledged
// report that corrected a CSV day, and journaled the reversion.
func TestSeedStoreOnlyWhenEmpty(t *testing.T) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles, cfg.Days = 2, 60
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(t.TempDir(), "fleet.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	err = fleet.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	// The store seeds from the CSV as read back, not the generated fleet.
	if fleet, err = readFleetCSV(csvPath); err != nil {
		t.Fatal(err)
	}
	id := fleet.Vehicles[0].Profile.ID
	correction := []ingest.Report{{VehicleID: id, Date: fleet.Vehicles[0].Start, Seconds: 1234}}

	cases := []struct {
		name    string
		durable bool // -wal-dir set
		boots   int  // the last boot is the one checked
		correct bool // a correction of a seed day is acknowledged before each restart
	}{
		{"in-memory store seeds", false, 1, false},
		{"first durable boot seeds", true, 1, false},
		{"durable restart journals nothing", true, 2, false},
		{"durable restart keeps a corrected seed day", true, 2, true},
		{"durable restarts keep a corrected seed day", true, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *ingest.Store {
				if !tc.durable {
					return ingest.New(timeseries.DefaultAllowance)
				}
				s, err := ingest.OpenDurable(timeseries.DefaultAllowance, ingest.DurableOptions{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			var s *ingest.Store
			for boot := 0; boot < tc.boots; boot++ {
				if s != nil {
					s.Close()
				}
				s = open()
				if err := seedStore(s, csvPath, nil, ""); err != nil {
					t.Fatal(err)
				}
				if boot < tc.boots-1 && tc.correct {
					if _, err := s.UpsertBatch(correction); err != nil {
						t.Fatal(err)
					}
				}
			}
			defer s.Close()

			// The store must hold the seed with every acknowledged
			// correction on top.
			want := ingest.New(timeseries.DefaultAllowance)
			if _, err := want.SeedFromFleet(fleet); err != nil {
				t.Fatal(err)
			}
			if tc.correct {
				if _, err := want.UpsertBatch(correction); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range want.Vehicles() {
				gh, _ := s.Hash(v)
				wh, _ := want.Hash(v)
				if gh != wh {
					t.Fatalf("vehicle %s hash %x, want %x (seed plus acknowledged corrections)", v, gh, wh)
				}
			}
			if st := s.Stats(); tc.boots > 1 && st.WAL.Appends != 0 {
				t.Fatalf("restart journaled %d records before any telemetry arrived", st.WAL.Appends)
			}
		})
	}
}

// TestRestoreSnapshotRefusesVersion1 pins the snapshot version policy
// at boot: a spill in the gob-based version 1 format (the magic, then a
// gob-encoded header) is not restored, so the shard cold-trains from
// its ingest checkpoint and WAL instead.
func TestRestoreSnapshotRefusesVersion1(t *testing.T) {
	dir := t.TempDir()
	var v1 bytes.Buffer
	v1.WriteString("reprosnap\n")
	header := struct {
		Version int
		Shard   string
		SavedAt time.Time
	}{1, "shard00", time.Now()}
	if err := gob.NewEncoder(&v1).Encode(header); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard00.snap"), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snaps, err := snapstore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Predictor: core.DefaultPredictorConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restoreSnapshot(eng, readSnapshots(snaps, []string{"shard00"}), "shard00", false); ok || eng.Snapshot() != nil {
		t.Fatal("a version 1 spill was restored; the boot must cold-train instead")
	}
}
