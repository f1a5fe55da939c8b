package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// generatedFleet writes the fleet fleetgen would and reads it back with
// the driver's own parser.
func generatedFleet(t *testing.T, vehicles int) []*seedVehicle {
	t.Helper()
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = vehicles
	cfg.Seed = fleetSeed
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fleet.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "generated.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := readFleetCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// The truncated seed CSV must give the stated 18/3/3 split by the
// server's own categorisation, with every series ending on one day.
func TestTruncateFleetSplit(t *testing.T) {
	fleet := generatedFleet(t, paperFleet)
	last := fleet[0].lastDay()
	if err := truncateFleet(fleet); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed.csv")
	if err := writeFleetCSV(path, fleet, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, err := telematics.ReadCSV(f)
	if err != nil {
		t.Fatalf("the server's CSV reader rejects the seed CSV: %v", err)
	}
	counts := map[string]int{}
	for i, v := range parsed.Vehicles {
		prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, timeseries.DefaultAllowance)
		if err != nil {
			t.Fatal(err)
		}
		got := core.Categorize(prep.Series).String()
		counts[got]++
		if got != fleet[i].category {
			t.Errorf("%s: the server categorises it %s, the driver expects %s", v.Profile.ID, got, fleet[i].category)
		}
		if end := v.Start.AddDate(0, 0, len(v.RawU)-1); !end.Equal(last) {
			t.Errorf("%s ends on %s, the fleet ends on %s", v.Profile.ID, end.Format(dayLayout), last.Format(dayLayout))
		}
	}
	if counts[catOld] != 18 || counts[catSemiNew] != 3 || counts[catNew] != 3 {
		t.Errorf("split = %v, want 18 old / 3 semi-new / 3 new", counts)
	}
}

// The reference CSV is the seed plus acknowledged reports: days a
// vehicle skipped are written as 0.0 (what the ingest store holds for
// them) and vehicles that exist only as reports are appended.
func TestWriteFleetCSVWithReports(t *testing.T) {
	first := time.Date(2019, 9, 28, 0, 0, 0, 0, time.UTC)
	fleet := []*seedVehicle{{id: "v01", model: "M", class: "excavator", first: first, seconds: []string{"100.0", "200.5"}}}
	day := func(d int) int64 { return epochDay(first.AddDate(0, 0, d)) }
	acked := map[string]map[int64]int{
		"v01":       {day(2): 3001, day(4): 5005},
		"bulk-0001": {day(1): 11, day(2): 22},
	}
	path := filepath.Join(t.TempDir(), "ref.csv")
	if err := writeFleetCSV(path, fleet, acked); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "vehicle,model,class,date,seconds\n" +
		"v01,M,excavator,2019-09-28,100.0\n" +
		"v01,M,excavator,2019-09-29,200.5\n" +
		"v01,M,excavator,2019-09-30,300.1\n" +
		"v01,M,excavator,2019-10-01,0.0\n" +
		"v01,M,excavator,2019-10-02,500.5\n" +
		"bulk-0001,BULK,excavator,2019-09-29,1.1\n" +
		"bulk-0001,BULK,excavator,2019-09-30,2.2\n"
	if string(got) != want {
		t.Errorf("reference CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestReportSourceCyclesTheFleet(t *testing.T) {
	fleet := generatedFleet(t, 8)
	a, b := newReportSource(fleet, 5), newReportSource(fleet, 5)
	seen := map[string]int{}
	for i := 0; i < 2*len(fleet); i++ {
		ra, va := a.nextReport()
		rb, _ := b.nextReport()
		if ra != rb {
			t.Fatalf("report %d differs between two sources of one seed: %v vs %v", i, ra, rb)
		}
		seen[ra.vehicle]++
		if want := va.lastDay().AddDate(0, 0, seen[ra.vehicle]); !ra.day.Equal(want) {
			t.Errorf("report %d of %s is for %s, want the next day %s", seen[ra.vehicle], ra.vehicle, ra.day.Format(dayLayout), want.Format(dayLayout))
		}
		if s := ra.seconds(); s < 3600 || s > 28800.1 {
			t.Errorf("report of %v seconds is outside 1 to 8 hours", s)
		}
		if formatTenths(ra.tenths) != formatTenths(int(ra.seconds()*10+0.5)) {
			t.Errorf("seconds %v do not survive one decimal", ra.seconds())
		}
	}
	for id, n := range seen {
		if n != 2 {
			t.Errorf("%s reported %d times in two cycles", id, n)
		}
	}
}
