package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/ingest"
	"repro/internal/wal"
)

// seedReports turns the fleet's raw series into one report per day.
func seedReports(pf *probeFleet) []ingest.Report {
	var out []ingest.Report
	for _, v := range pf.raw {
		for d, sec := range v.RawU {
			out = append(out, ingest.Report{VehicleID: v.Profile.ID, Date: v.Start.AddDate(0, 0, d), Seconds: sec})
		}
	}
	return out
}

// bulkBatches builds n 100-report batches over 256 synthetic vehicles
// and 30 days, cycling with new values — the storm workload's traffic.
func bulkBatches(n int) [][]ingest.Report {
	first := time.Date(2019, 9, 2, 0, 0, 0, 0, time.UTC)
	out := make([][]ingest.Report, n)
	for b := range out {
		batch := make([]ingest.Report, 100)
		for i := range batch {
			slot := b*100 + i
			batch[i] = ingest.Report{
				VehicleID: fmt.Sprintf("bulk-%04d", slot/30%256),
				Date:      first.AddDate(0, 0, slot%30),
				Seconds:   1000 + float64((slot*37+slot/7680*1009)%500000)/10,
			}
		}
		out[b] = batch
	}
	return out
}

// probeIngest times the store: the fleet fetch a retrain starts with
// (cold, then with one vehicle dirty), 100-report batches through the
// binary and the struct upsert paths and their redelivery, and — on a
// durable store — the checkpoint a spill triggers and the reopen a
// restart pays.
func probeIngest(pf *probeFleet, dir string, m metrics) error {
	ctx := context.Background()
	store := ingest.New(allowance)
	seed := seedReports(pf)
	if _, err := store.UpsertBatch(seed); err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := store.Fleet(ctx); err != nil {
		return err
	}
	m["ingest.fleet_fetch_cold_ms"] = ms(time.Since(t0))
	day := 0
	d, err := medianOf(5, func() error {
		v := pf.raw[day%len(pf.raw)]
		day++
		rep := ingest.Report{VehicleID: v.Profile.ID, Date: v.Start.AddDate(0, 0, len(v.RawU)+day), Seconds: 14400}
		if _, err := store.UpsertBatch([]ingest.Report{rep}); err != nil {
			return err
		}
		_, err := store.Fleet(ctx)
		return err
	})
	if err != nil {
		return err
	}
	m["ingest.fleet_fetch_one_dirty_ms"] = ms(d)

	const nBatches = 2000
	batches := bulkBatches(nBatches)
	perReport := func(fn func(i int) error) (float64, error) {
		t0 := time.Now()
		for i := range batches {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(nBatches*100), nil
	}
	payloads := make([][]byte, nBatches)
	for i, b := range batches {
		frame, err := ingest.EncodeWireFrame(b)
		if err != nil {
			return err
		}
		if payloads[i], _, err = wal.ParseFrame(frame); err != nil {
			return err
		}
	}
	binStore := ingest.New(allowance)
	if m["ingest.upsert_binary_ns_per_report"], err = perReport(func(i int) error {
		_, err := binStore.UpsertBinary(payloads[i], len(batches[i]))
		return err
	}); err != nil {
		return err
	}
	jsonStore := ingest.New(allowance)
	upsert := func(b []ingest.Report) error {
		_, err := jsonStore.UpsertBatch(b)
		return err
	}
	if m["ingest.upsert_json_ns_per_report"], err = perReport(func(i int) error { return upsert(batches[i]) }); err != nil {
		return err
	}
	// The last 7680 reports (one full cycle) now hold the stored values:
	// sending them again changes nothing.
	batches = batches[nBatches-77:]
	t0 = time.Now()
	for rep := 0; rep < 20; rep++ {
		for _, b := range batches {
			if err := upsert(b); err != nil {
				return err
			}
		}
	}
	m["ingest.redelivery_ns_per_report"] = float64(time.Since(t0).Nanoseconds()) / float64(20*len(batches)*100)

	return probeDurable(pf, filepath.Join(dir, "durable"), seed, m)
}

func probeDurable(pf *probeFleet, dir string, seed []ingest.Report, m metrics) error {
	opts := ingest.DurableOptions{Dir: dir, Fsync: wal.FsyncInterval}
	store, err := ingest.OpenDurable(allowance, opts)
	if err != nil {
		return err
	}
	if _, err := store.UpsertBatch(seed); err != nil {
		return err
	}
	tail := bulkBatches(200)
	walBytes := func() int64 {
		if st := store.Stats(); st.WAL != nil {
			return st.WAL.Bytes
		}
		return 0
	}
	next := 0
	d, err := medianOf(3, func() error {
		// Each checkpoint follows some new telemetry, as each spill does.
		for ; next%20 != 19; next++ {
			if _, err := store.UpsertBatch(tail[next]); err != nil {
				return err
			}
		}
		next++
		_, err := store.CheckpointAndCompact()
		return err
	})
	if err != nil {
		return err
	}
	m["ingest.checkpoint_ms"] = ms(d)
	before := walBytes()
	for _, b := range tail[100:] {
		if _, err := store.UpsertBatch(b); err != nil {
			return err
		}
	}
	m["wal.bytes_per_report"] = float64(walBytes()-before) / float64(100*100)
	if err := store.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	store, err = ingest.OpenDurable(allowance, opts)
	if err != nil {
		return err
	}
	m["ingest.reopen_ms"] = ms(time.Since(t0))
	return store.Close()
}
