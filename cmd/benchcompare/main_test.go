package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func rec(label string, ns map[string]float64) runRecord {
	r := runRecord{Label: label, Benchtime: "1x", CPU: "test"}
	for name, v := range ns {
		r.Results = append(r.Results, benchResult{Name: name, NsPerOp: v})
	}
	return r
}

func TestCompareRunsRatiosAndRegressions(t *testing.T) {
	old := rec("before", map[string]float64{
		"BenchmarkGBMFit/n=20000":    100e6,
		"BenchmarkForestFit/n=20000": 200e6,
		"BenchmarkTreeFit/n=200":     1e6,
	})
	new := rec("after", map[string]float64{
		"BenchmarkGBMFit/n=20000":    60e6,  // 0.60x: improvement
		"BenchmarkForestFit/n=20000": 250e6, // 1.25x: hot regression
		"BenchmarkTreeFit/n=200":     2e6,   // 2.00x: not hot, tolerated
		"BenchmarkNew/n=1":           5e5,   // no old counterpart
	})
	hot := []string{"BenchmarkGBMFit", "BenchmarkForestFit"}
	rows, regressions := compareRuns(old, new, hot, 1.10)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.name] = r
	}
	if r := byName["BenchmarkGBMFit/n=20000"]; !r.hot || r.ratio != 0.6 {
		t.Fatalf("gbm row = %+v, want hot ratio 0.6", r)
	}
	if r := byName["BenchmarkNew/n=1"]; !r.newRow {
		t.Fatalf("unpaired benchmark not marked new: %+v", r)
	}
	if len(regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly the forest one", regressions)
	}
	if got := regressions[0]; got[:len("BenchmarkForestFit/n=20000")] != "BenchmarkForestFit/n=20000" {
		t.Fatalf("regression names %q", got)
	}
}

// TestCompareRunsListsRemovedRows: a benchmark the older record has and
// the newer one lacks is listed as removed, after the newer record's
// rows, instead of being dropped from the table. A removed row has no
// ratio, so it never counts as a regression.
func TestCompareRunsListsRemovedRows(t *testing.T) {
	old := rec("before", map[string]float64{"BenchmarkGBMFit/n=20000": 100e6, "BenchmarkGBMFit/n=20000/workers=4": 120e6, "BenchmarkTreeFit/n=200": 1e6})
	new := rec("after", map[string]float64{"BenchmarkGBMFit/n=20000": 101e6, "BenchmarkTreeFit/n=200": 1e6})
	rows, regressions := compareRuns(old, new, []string{"BenchmarkGBMFit"}, 1.10)
	if len(rows) != 3 || len(regressions) != 0 {
		t.Fatalf("rows = %+v, regressions = %v; want 3 rows, no regression", rows, regressions)
	}
	if rows[0].removed || rows[1].removed {
		t.Fatalf("paired rows marked removed: %+v", rows[:2])
	}
	if r := rows[2]; r.name != "BenchmarkGBMFit/n=20000/workers=4" || !r.removed || !r.hot || r.oldNs != 120e6 {
		t.Fatalf("last row = %+v, want the removed hot workers=4 row at 120e6 ns", r)
	}
}

func TestHotMatchCoversSubBenchmarks(t *testing.T) {
	hot := []string{"BenchmarkGBMFit"}
	if !hotMatch("BenchmarkGBMFit", hot) || !hotMatch("BenchmarkGBMFit/n=20000", hot) {
		t.Fatal("prefix sub-benchmark not matched")
	}
	if hotMatch("BenchmarkGBMFitX", hot) {
		t.Fatal("name-prefix collision matched")
	}
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, records []runRecord) string {
		data, err := json.Marshal(records)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ok := write("ok.json", []runRecord{
		rec("a", map[string]float64{"BenchmarkGBMFit/n=20000": 100}),
		rec("b", map[string]float64{"BenchmarkGBMFit/n=20000": 90}),
	})
	bad := write("bad.json", []runRecord{
		rec("a", map[string]float64{"BenchmarkGBMFit/n=20000": 100}),
		rec("b", map[string]float64{"BenchmarkGBMFit/n=20000": 150}),
	})
	single := write("single.json", []runRecord{rec("a", nil)})

	if code := run([]string{ok, single}, []string{"BenchmarkGBMFit"}, 1.10); code != 0 {
		t.Fatalf("clean compare exited %d", code)
	}
	if code := run([]string{bad}, []string{"BenchmarkGBMFit"}, 1.10); code != 1 {
		t.Fatalf("regressed compare exited %d, want 1", code)
	}
	if code := run([]string{bad}, nil, 1.10); code != 0 {
		t.Fatalf("regression without hot guard exited %d, want 0", code)
	}
	if code := run([]string{filepath.Join(dir, "missing.json")}, nil, 1.10); code != 1 {
		t.Fatalf("missing file exited %d, want 1", code)
	}
}
