package ingest

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

var day0 = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

func report(id string, dayOffset int, seconds float64) Report {
	return Report{VehicleID: id, Date: day0.AddDate(0, 0, dayOffset), Seconds: seconds}
}

func TestUpsertBatchValidation(t *testing.T) {
	s := New(0)
	res, _ := s.UpsertBatch([]Report{
		report("v01", 0, 18000),
		report("v01", 1, -5),                         // negative
		report("v01", 2, math.NaN()),                 // non-finite
		report("v01", 3, dataprep.MaxDailySeconds+1), // excessive
		{VehicleID: "v01", Seconds: 100},             // zero date
		{VehicleID: "v01", Date: time.Date(1980, 1, 1, 0, 0, 0, 0, time.UTC), Seconds: 100}, // before horizon
		{VehicleID: "v01", Date: time.Now().AddDate(1, 0, 0), Seconds: 100},                 // far future
		{VehicleID: "", Date: day0, Seconds: 100},                                           // empty id
		report("v02", 0, 0), // zero seconds are valid content
	})
	if res.Accepted != 2 || res.Rejected != 7 || res.Changed != 2 {
		t.Fatalf("totals = %+v", res)
	}
	v1 := res.Vehicles["v01"]
	if v1 == nil || v1.Accepted != 1 || v1.Rejected != 6 || len(v1.Errors) != 6 {
		t.Fatalf("v01 result = %+v", v1)
	}
	if anon := res.Vehicles[""]; anon == nil || anon.Rejected != 1 {
		t.Fatalf("empty-id result = %+v", anon)
	}
	if got := s.Vehicles(); len(got) != 2 || got[0] != "v01" || got[1] != "v02" {
		t.Fatalf("vehicles = %v", got)
	}
}

func TestIdempotentRedelivery(t *testing.T) {
	s := New(0)
	batch := []Report{report("v01", 0, 18000), report("v01", 1, 15000), report("v02", 0, 9000)}
	first, _ := s.UpsertBatch(batch)
	if first.Changed != 3 {
		t.Fatalf("first delivery changed %d, want 3", first.Changed)
	}
	h1, _ := s.Hash("v01")
	seq1 := s.Seq()

	second, _ := s.UpsertBatch(batch)
	if second.Accepted != 3 || second.Changed != 0 {
		t.Fatalf("re-delivery = %+v", second)
	}
	if h2, _ := s.Hash("v01"); h2 != h1 {
		t.Fatalf("hash changed on re-delivery: %x -> %x", h1, h2)
	}
	if s.Seq() != seq1 {
		t.Fatalf("seq advanced on re-delivery: %d -> %d", seq1, s.Seq())
	}
	if dirty := s.DirtySince(seq1, nil); len(dirty) != 0 {
		t.Fatalf("dirty after re-delivery: %v", dirty)
	}
}

// TestOutOfOrderDelivery: the same content delivered in any order — and
// any batch slicing — yields the same hash and the same derived series.
func TestOutOfOrderDelivery(t *testing.T) {
	inOrder := New(0)
	inOrder.UpsertBatch([]Report{
		report("v01", 0, 1000), report("v01", 1, 2000), report("v01", 2, 3000), report("v01", 3, 4000),
	})
	shuffled := New(0)
	shuffled.UpsertBatch([]Report{report("v01", 2, 3000), report("v01", 0, 1000)})
	shuffled.UpsertBatch([]Report{report("v01", 3, 4000), report("v01", 1, 2000)})

	ha, _ := inOrder.Hash("v01")
	hb, _ := shuffled.Hash("v01")
	if ha != hb {
		t.Fatalf("order-dependent hash: %x vs %x", ha, hb)
	}

	fa, err := inOrder.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := shuffled.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != 1 || len(fb) != 1 {
		t.Fatalf("fleet sizes %d, %d", len(fa), len(fb))
	}
	if !fa[0].Start.Equal(fb[0].Start) {
		t.Fatalf("starts differ: %v vs %v", fa[0].Start, fb[0].Start)
	}
	for i, v := range fa[0].Series.U {
		if fb[0].Series.U[i] != v {
			t.Fatalf("day %d differs: %v vs %v", i, v, fb[0].Series.U[i])
		}
	}
}

// TestGapsAreZeroDays: unreported days inside the span materialize as
// zero-usage days: the vehicle did not work.
func TestGapsAreZeroDays(t *testing.T) {
	s := New(0)
	s.UpsertBatch([]Report{report("v01", 3, 4000), report("v01", 0, 1000)})
	fleet, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	u := fleet[0].Series.U
	want := []float64{1000, 0, 0, 4000}
	if len(u) != len(want) {
		t.Fatalf("span %d, want %d", len(u), len(want))
	}
	for i, w := range want {
		if u[i] != w {
			t.Fatalf("u[%d] = %v, want %v", i, u[i], w)
		}
	}
	if !fleet[0].Start.Equal(day0) {
		t.Fatalf("start = %v, want %v", fleet[0].Start, day0)
	}
}

// TestOverwriteAndRevert: re-reporting a day with a different value
// changes the hash; reverting restores the original hash exactly (the
// XOR fold adjusts in O(1) both ways).
func TestOverwriteAndRevert(t *testing.T) {
	s := New(0)
	s.UpsertBatch([]Report{report("v01", 0, 1000), report("v01", 1, 2000)})
	orig, _ := s.Hash("v01")

	res, _ := s.UpsertBatch([]Report{report("v01", 1, 2500)})
	if res.Changed != 1 {
		t.Fatalf("overwrite changed %d, want 1", res.Changed)
	}
	mid, _ := s.Hash("v01")
	if mid == orig {
		t.Fatal("hash unchanged after overwrite")
	}

	s.UpsertBatch([]Report{report("v01", 1, 2000)})
	if back, _ := s.Hash("v01"); back != orig {
		t.Fatalf("revert hash %x, want original %x", back, orig)
	}
}

func TestDirtySinceAndSeq(t *testing.T) {
	s := New(0)
	s.UpsertBatch([]Report{report("v01", 0, 1000), report("v02", 0, 2000)})
	mark := s.Seq()
	if dirty := s.DirtySince(0, nil); len(dirty) != 2 {
		t.Fatalf("dirty since 0 = %v", dirty)
	}
	if dirty := s.DirtySince(mark, nil); len(dirty) != 0 {
		t.Fatalf("dirty since mark = %v", dirty)
	}
	s.UpsertBatch([]Report{report("v02", 1, 2000)})
	dirty := s.DirtySince(mark, nil)
	if len(dirty) != 1 || dirty[0] != "v02" {
		t.Fatalf("dirty since mark = %v, want [v02]", dirty)
	}
}

// TestConcurrentMixedReadersWriters hammers the store with concurrent
// writers on distinct vehicles and readers deriving fleets and stats;
// run under -race this is the store's concurrency contract. The final
// state must equal a serially built store's.
func TestConcurrentMixedReadersWriters(t *testing.T) {
	const writers = 8
	const batches = 20
	const daysPerBatch = 15

	s := New(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Fleet(context.Background()); err != nil {
					t.Error(err)
					return
				}
				s.Stats()
				s.DirtySince(0, nil)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("v%02d", w)
			for b := 0; b < batches; b++ {
				var batch []Report
				for d := 0; d < daysPerBatch; d++ {
					batch = append(batch, report(id, b*daysPerBatch+d, float64(1000+w*10+d)))
				}
				s.UpsertBatch(batch)
			}
		}(w)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(30 * time.Second)
	writersLeft := true
	for writersLeft {
		select {
		case <-done:
			writersLeft = false
		case <-deadline:
			t.Fatal("concurrent test timed out")
		default:
			st := s.Stats()
			if st.Vehicles == writers && st.Accepted == writers*batches*daysPerBatch {
				close(stop)
				<-done
				writersLeft = false
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}

	ref := New(0)
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("v%02d", w)
		var batch []Report
		for d := 0; d < batches*daysPerBatch; d++ {
			batch = append(batch, report(id, d, float64(1000+w*10+d%daysPerBatch)))
		}
		ref.UpsertBatch(batch)
	}
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("v%02d", w)
		got, _ := s.Hash(id)
		want, _ := ref.Hash(id)
		if got != want {
			t.Errorf("vehicle %s hash %x, want %x", id, got, want)
		}
	}
}

// TestSeedFromFleetMatchesCSVPath: seeding the store from a (corrupted)
// generated fleet and deriving series through Fleet must produce the
// same prepared series as the direct CSV ingestion path.
func TestSeedFromFleetMatchesCSVPath(t *testing.T) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 4
	cfg.Days = 300
	cfg.Corrupt = true
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}

	s := New(cfg.Allowance)
	if _, err := s.SeedFromFleet(fleet); err != nil {
		t.Fatal(err)
	}
	got, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.Vehicles {
		t.Fatalf("fleet size %d, want %d", len(got), cfg.Vehicles)
	}
	byID := make(map[string]timeseries.Series)
	for _, v := range got {
		byID[v.Series.ID] = v.Series.U
	}
	for _, v := range fleet.Vehicles {
		prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, cfg.Allowance)
		if err != nil {
			t.Fatal(err)
		}
		u := byID[v.Profile.ID]
		if len(u) != len(prep.Series.U) {
			t.Fatalf("vehicle %s span %d, want %d", v.Profile.ID, len(u), len(prep.Series.U))
		}
		for i, w := range prep.Series.U {
			if u[i] != w {
				t.Fatalf("vehicle %s day %d: %v, want %v", v.Profile.ID, i, u[i], w)
			}
		}
	}
}

// TestFleetPreparedCache: Fleet caches each vehicle's prepared series
// keyed by its content hash — an unchanged vehicle is returned
// pointer-identical (no re-preparation), a dirty vehicle is re-prepared,
// and the hit/miss counters account for both.
func TestFleetPreparedCache(t *testing.T) {
	s := New(0)
	s.UpsertBatch([]Report{
		report("v01", 0, 1000), report("v01", 1, 2000), report("v01", 2, 3000),
		report("v02", 0, 4000), report("v02", 1, 5000),
	})

	first, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PrepCacheHits != 0 || st.PrepCacheMisses != 2 {
		t.Fatalf("after first fetch: hits=%d misses=%d, want 0/2", st.PrepCacheHits, st.PrepCacheMisses)
	}

	second, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Series != second[i].Series {
			t.Fatalf("vehicle %d re-prepared despite clean content", i)
		}
	}
	if st := s.Stats(); st.PrepCacheHits != 2 || st.PrepCacheMisses != 2 {
		t.Fatalf("after clean refetch: hits=%d misses=%d, want 2/2", st.PrepCacheHits, st.PrepCacheMisses)
	}

	// Dirty one vehicle: only it is re-prepared.
	s.UpsertBatch([]Report{report("v02", 2, 6000)})
	third, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Series != first[0].Series {
		t.Fatal("clean vehicle v01 was re-prepared")
	}
	if third[1].Series == first[1].Series {
		t.Fatal("dirty vehicle v02 was served from a stale cache")
	}
	if got := len(third[1].Series.U); got != 3 {
		t.Fatalf("v02 span after update = %d days, want 3", got)
	}
	if st := s.Stats(); st.PrepCacheHits != 3 || st.PrepCacheMisses != 3 {
		t.Fatalf("after dirty refetch: hits=%d misses=%d, want 3/3", st.PrepCacheHits, st.PrepCacheMisses)
	}
}

// TestConcurrentFleetsShareSeries: fetches that run at once, as the
// in-process shards' first builds do, hand every vehicle out as one
// series between them — the pointer an engine's next build compares to
// carry a clean vehicle — not one private copy per fetch.
func TestConcurrentFleetsShareSeries(t *testing.T) {
	s := New(0)
	var reports []Report
	for v := 0; v < 64; v++ {
		for d := 0; d < 400; d++ {
			reports = append(reports, report(fmt.Sprintf("v%02d", v), d, float64(1000+(v*37+d*11)%9000)))
		}
	}
	s.UpsertBatch(reports)
	const fetches = 4
	fleets := make([][]engine.Vehicle, fetches)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range fleets {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			var err error
			if fleets[i], err = s.Fleet(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	start.Done()
	done.Wait()
	for i := 1; i < fetches; i++ {
		for j, v := range fleets[i] {
			if v.Series != fleets[0][j].Series {
				t.Fatalf("fetch %d: vehicle %s has its own series copy", i, v.Series.ID)
			}
		}
	}
}

// TestFleetSeriesOwnTheirRun: the series Fleet returns keep its own copy
// of each run, so telemetry written after the fetch — a day rewritten in
// place, a day appended, a day backfilled — leaves them unchanged.
func TestFleetSeriesOwnTheirRun(t *testing.T) {
	s := New(0)
	s.UpsertBatch([]Report{
		report("v01", 0, 1000), report("v01", 1, 2000), report("v01", 3, 3000),
		report("v02", 0, 4000),
	})
	fleet, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]timeseries.Series, len(fleet))
	for i, v := range fleet {
		want[i] = v.Series.U.Clone()
	}
	s.UpsertBatch([]Report{
		report("v01", 1, 9000), // rewrites a day inside the run
		report("v01", 2, 8000), // fills the gap
		report("v01", 4, 7000), // extends the run
		report("v02", 0, 6000),
	})
	for i, v := range fleet {
		if fmt.Sprint(v.Series.U) != fmt.Sprint(want[i]) {
			t.Errorf("vehicle %s: series %v changed to %v by later telemetry", v.Series.ID, want[i], v.Series.U)
		}
	}
	again, err := s.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(again[0].Series.U); got != "[1000 9000 8000 3000 7000]" {
		t.Fatalf("refetched v01 = %s, want the rewritten run", got)
	}
}

// TestDirtyCount: DirtyCount agrees with DirtySince up to its limit and
// allocates nothing — it runs on every acknowledged batch.
func TestDirtyCount(t *testing.T) {
	s := New(0)
	for i := 0; i < 8; i++ {
		if _, err := s.UpsertBatch([]Report{report(fmt.Sprintf("v%02d", i), 0, 18000)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		seq   uint64
		limit int
	}{{0, 3}, {0, 100}, {5, 1}, {5, 3}, {5, 4}, {8, 1}, {9, 1}} {
		want := min(len(s.DirtySince(c.seq, nil)), c.limit)
		if got, at := s.DirtyCount(c.seq, c.limit, nil); got != want || at != 8 {
			t.Errorf("DirtyCount(%d, %d) = %d at %d, want %d at 8", c.seq, c.limit, got, at, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.DirtyCount(2, 100, nil) }); n != 0 {
		t.Fatalf("DirtyCount allocates %v/op, want 0", n)
	}
	if seq, ok := s.VehicleSeq("v03"); !ok || seq != 4 {
		t.Fatalf("VehicleSeq(v03) = %d %v, want 4 true", seq, ok)
	}
	if _, ok := s.VehicleSeq("nope"); ok {
		t.Fatal("VehicleSeq of an unknown vehicle")
	}
}
