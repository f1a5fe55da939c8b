package main

import (
	"path/filepath"
	"time"

	"repro/internal/wal"
)

// probeWAL times journal appends under both fsync policies the
// workloads use — one report's record at always, a 100-report batch's
// at interval — and the replay a restart performs.
func probeWAL(_ *probeFleet, dir string, m metrics) error {
	appendMedian := func(sub string, policy wal.FsyncPolicy, payload []byte, n int) (float64, *wal.Log, error) {
		log, err := wal.Open(filepath.Join(dir, sub), wal.Options{Fsync: policy})
		if err != nil {
			return 0, nil, err
		}
		d, err := medianOf(n, func() error {
			_, err := log.Append(payload)
			return err
		})
		return us(d), log, err
	}
	v, log, err := appendMedian("wal-always", wal.FsyncAlways, make([]byte, 48), 200)
	if err != nil {
		return err
	}
	m["wal.append_always_us"] = v
	if err := log.Close(); err != nil {
		return err
	}
	const records = 20000
	v, log, err = appendMedian("wal-interval", wal.FsyncInterval, make([]byte, 1700), records)
	if err != nil {
		return err
	}
	m["wal.append_interval_us"] = v
	if err := log.Close(); err != nil {
		return err
	}
	log, err = wal.Open(filepath.Join(dir, "wal-interval"), wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return err
	}
	t0 := time.Now()
	n := 0
	if err := log.Replay(func(uint64, []byte) error { n++; return nil }); err != nil {
		return err
	}
	m["wal.replay_records_per_s"] = float64(n) / time.Since(t0).Seconds()
	return log.Close()
}
