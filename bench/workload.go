package main

import (
	"fmt"
	"time"
)

// spec is one workload: a fleet, a server configuration and a traffic
// mix. Every workload runs the same loop — cold boots, a window of
// traffic, SIGKILL/restart cycles, the output check — and reports the
// same metrics; they differ in which layers do the work.
type spec struct {
	name string
	why  string

	vehicles int
	// flags are the fleetserver flags beyond -data/-addr; {wal} and
	// {snap} are replaced with per-run directories.
	flags []string
	fsync string

	// segments cuts the window into equal stretches of traffic and
	// crashes is the number of SIGKILL/restart cycles: cycle i follows
	// segment i, and cycles beyond the last segment follow each other
	// directly.
	segments, crashes int

	// reportRate is the open-loop rate of single-report POSTs per
	// second, the reports whose freshness is sampled; no two are due
	// closer than reportGap. The gap is a little longer than one
	// build-and-spill cycle of the workload's fleet, so that the median
	// report meets an idle engine and measures the loop itself, while a
	// slow cycle still collides with the next report and shows in the
	// tail.
	reportRate float64
	reportGap  time.Duration
	// refresh makes every single report ask for a background retrain
	// (POST /admin/retrain) once it is acknowledged: the server of this
	// workload retrains on no trigger of its own.
	refresh bool

	// readRate is the open-loop read rate per second; when 0,
	// readClients closed-loop readers run instead.
	readRate    float64
	readClients int
	// readMix is the vehicle-forecast / fleet-forecast / plan split in
	// percent; planCombos is how many distinct (capacity, horizon,
	// maxlead) triples plan reads draw from — twice the server's
	// 128-entry plan cache.
	readMix    [3]int
	planCombos int

	// bulkClients closed-loop clients post bulkBatch-report batches for
	// bulkVehicles synthetic vehicles, on the binary door for the first
	// half of a segment and the JSON door for the second.
	bulkClients, bulkVehicles int
}

const (
	bulkBatch = 100
	bulkDays  = 30
	// setupBoots cold boots are timed per run and the median reported,
	// because one boot is a single sample of a seconds-long operation.
	setupBoots = 3
	// crashReports reports are acknowledged immediately before each
	// SIGKILL, so every recovery has telemetry that only the WAL holds.
	crashReports = 3
)

// The paper's fleet is 24 vehicles; largeFleet stands for a depot. The
// issue sized the large fleet at 192 and windows of 60/30/30 s; both are
// scaled down so that the 92 runs the benchmark driver makes fit its
// 57-minute cap (README.md, "Scaling").
const (
	paperFleet = 24
	largeFleet = 48
)

var workloads = []spec{
	{
		name:     "trickle",
		why:      "paper-scale freshness loop: single reports each kick an incremental retrain and spill beside open-loop reads; engine, core, ml and snapstore do the work, doors and WAL almost none",
		vehicles: paperFleet,
		flags:    []string{"-ingest", "-retrain-dirty", "1", "-wal-dir", "{wal}", "-snapshot-dir", "{snap}", "-fsync", "always"},
		fsync:    "always",
		segments: 1, crashes: 9,
		reportRate: 2.5, reportGap: 300 * time.Millisecond,
		readRate: 200, readMix: [3]int{90, 8, 2}, planCombos: 256,
	},
	{
		name:     "storm",
		why:      "bulk uploads: closed-loop 100-report batches on the binary then the JSON door at fsync interval, no retrain unless a report asks, no snapshots; doors, ingest and wal do the work, the engine little",
		vehicles: paperFleet,
		flags:    []string{"-ingest", "-retrain-interval", "24h", "-wal-dir", "{wal}", "-fsync", "interval"},
		fsync:    "interval",
		segments: 1, crashes: 5,
		reportRate: 2, reportGap: 300 * time.Millisecond, refresh: true,
		readRate: 200, readMix: [3]int{90, 8, 2}, planCombos: 256,
		bulkClients: 1, bulkVehicles: 16,
	},
	{
		name:     "dash",
		why:      "read-mostly dashboard on a 3-shard router: closed-loop reads, half conditional, plans from twice the plan cache, few reports; router merge, response caches, 304s and sched do the work",
		vehicles: largeFleet,
		flags:    []string{"-shards", "3", "-ingest", "-retrain-dirty", "1", "-wal-dir", "{wal}", "-snapshot-dir", "{snap}", "-fsync", "always"},
		fsync:    "always",
		segments: 1, crashes: 9,
		reportRate: 1.5, reportGap: 450 * time.Millisecond,
		readClients: 1, readMix: [3]int{70, 20, 10}, planCombos: 256,
	},
	{
		name:     "boot",
		why:      "crash recovery: five short stretches of traffic, each ended by SIGKILL and a restart on the same WAL and snapshot dirs; wal replay, snapstore load, checkpoint reopen and engine restore do the work",
		vehicles: largeFleet,
		flags:    []string{"-ingest", "-retrain-dirty", "1", "-wal-dir", "{wal}", "-snapshot-dir", "{snap}", "-fsync", "always"},
		fsync:    "always",
		segments: 5, crashes: 9,
		reportRate: 2, reportGap: 400 * time.Millisecond,
		readRate: 200, readMix: [3]int{90, 8, 2}, planCombos: 256,
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
