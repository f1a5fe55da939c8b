package ingest

import (
	"fmt"
	"testing"

	"repro/internal/wal"
)

// writeStormLog journals reports into a fresh durable store in dir at
// the shape of a bulk upload: 16 vehicles × 30 days, cycled in
// 100-report batches grouped by vehicle, every report a new value for
// its (vehicle, day), fsync never.
func writeStormLog(tb testing.TB, dir string, reports int) {
	tb.Helper()
	const vehicles, days, batchSize = 16, 30, 100
	s, err := OpenDurable(0, DurableOptions{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]string, vehicles)
	for v := range ids {
		ids[v] = fmt.Sprintf("bulk-%02d", v)
	}
	batch := make([]Report, 0, batchSize)
	for n := 0; n < reports; n += batchSize {
		batch = batch[:0]
		for i := n; i < n+batchSize && i < reports; i++ {
			slot, cycle := i%(vehicles*days), i/(vehicles*days)
			batch = append(batch, report(ids[slot/days], slot%days, float64(1000+cycle%40000+slot)))
		}
		if _, err := s.UpsertBatch(batch); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
}

func reopen(tb testing.TB, dir string) *Store {
	tb.Helper()
	s, err := OpenDurable(0, DurableOptions{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestDurableReopenAllocsFlat: replay allocates per vehicle and per
// segment, never per report — ten times the journaled reports on the
// same vehicles and days must cost the same allocations to reopen.
func TestDurableReopenAllocsFlat(t *testing.T) {
	allocs := func(reports int) float64 {
		dir := t.TempDir()
		writeStormLog(t, dir, reports)
		return testing.AllocsPerRun(3, func() {
			s := reopen(t, dir)
			if s.Seq() != uint64(reports) {
				t.Fatalf("reopened seq %d, want %d", s.Seq(), reports)
			}
			s.Close()
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("reopen allocations: %.0f for 2k reports, %.0f for 20k", small, large)
	if large > small+16 {
		t.Fatalf("reopen allocations grow with the journal: %.0f for 2k reports, %.0f for 20k", small, large)
	}
}

// BenchmarkDurableReopen measures crash recovery of a WAL-only store
// (no checkpoint) holding about a million journaled reports at the
// shape of a bulk upload: checkpoint load, segment scan and replay.
func BenchmarkDurableReopen(b *testing.B) {
	const reports = 1_000_000
	dir := b.TempDir()
	writeStormLog(b, dir, reports)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := reopen(b, dir)
		if s.Seq() != reports {
			b.Fatalf("reopened seq %d, want %d", s.Seq(), reports)
		}
		s.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/reports, "ns/report")
}
