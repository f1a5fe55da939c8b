// Command probes times calls into each layer's public functions on the
// fleet a benchmark workload was seeded with, and prints one JSON object
// of <module>.<metric> values. fleetbench runs it as a subprocess after
// a traced run; the end-to-end numbers never depend on it.
//
// The probes call only long-standing entry points, one file per layer,
// so a refactor inside a layer does not break them — and none of the
// knobs whose removal is planned (intra-fit workers, snapshot cache
// accessors, the cluster package).
//
//	probes -data seed.csv -dir scratch-dir
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// metrics collects the probes' results.
type metrics map[string]float64

// probeFleet is the workload's seed fleet, raw and prepared.
type probeFleet struct {
	raw      []telematics.VehicleData
	prepared []engine.Vehicle
	// old, semiNew and fresh index prepared by cold-start category.
	old, semiNew, fresh []int
}

const allowance = timeseries.DefaultAllowance

func main() {
	data := flag.String("data", "", "fleet CSV the workload was seeded with")
	dir := flag.String("dir", "", "empty scratch directory for WAL, checkpoint and snapshot files")
	flag.Parse()
	if *data == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: probes -data seed.csv -dir scratch-dir")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	m := metrics{}
	fleet, err := loadFleet(*data, m)
	if err != nil {
		fatal(err)
	}
	for _, probe := range []func(*probeFleet, string, metrics) error{
		probeEngine, probeCore, probeML, probeIngest, probeWAL, probeSnapstore, probeSched,
	} {
		if err := probe(fleet, *dir, m); err != nil {
			fatal(err)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(m); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "probes:", err)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf times fn n times and returns the median duration.
func medianOf(n int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2], nil
}
