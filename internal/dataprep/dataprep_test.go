package dataprep

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

func TestCleanRepairsArtifacts(t *testing.T) {
	raw := timeseries.Series{100, math.NaN(), 300, -50, 90000, 200}
	clean, rep := Clean(raw)
	if rep.Missing != 1 || rep.Negative != 1 || rep.Excessive != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Total() != 3 {
		t.Fatalf("Total = %d, want 3", rep.Total())
	}
	// NaN between 100 and 300 interpolates to 200.
	if clean[1] != 200 {
		t.Fatalf("interpolated value = %v, want 200", clean[1])
	}
	if clean[3] != 0 {
		t.Fatalf("negative clamped to %v, want 0", clean[3])
	}
	if clean[4] != MaxDailySeconds {
		t.Fatalf("excessive clamped to %v, want %v", clean[4], MaxDailySeconds)
	}
	// Original untouched.
	if !math.IsNaN(raw[1]) {
		t.Fatal("Clean mutated its input")
	}
}

func TestCleanEdgeGaps(t *testing.T) {
	clean, _ := Clean(timeseries.Series{math.NaN(), math.NaN(), 10, 20, math.NaN()})
	if clean[0] != 10 || clean[1] != 10 {
		t.Fatalf("leading gap filled with %v %v, want 10 10", clean[0], clean[1])
	}
	if clean[4] != 20 {
		t.Fatalf("trailing gap filled with %v, want 20", clean[4])
	}
}

func TestCleanAllMissing(t *testing.T) {
	clean, rep := Clean(timeseries.Series{math.NaN(), math.NaN()})
	if rep.Missing != 2 {
		t.Fatalf("missing = %d", rep.Missing)
	}
	if clean[0] != 0 || clean[1] != 0 {
		t.Fatalf("all-missing series = %v, want zeros", clean)
	}
}

func TestCleanMultiDayGapInterpolation(t *testing.T) {
	clean, _ := Clean(timeseries.Series{0, math.NaN(), math.NaN(), math.NaN(), 40})
	want := []float64{0, 10, 20, 30, 40}
	for i := range want {
		if math.Abs(clean[i]-want[i]) > 1e-9 {
			t.Fatalf("clean = %v, want %v", clean, want)
		}
	}
}

func TestValidateCleanPostcondition(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rnd := rng.New(seed)
		raw := make(timeseries.Series, 50)
		for i := range raw {
			switch rnd.Intn(5) {
			case 0:
				raw[i] = math.NaN()
			case 1:
				raw[i] = -rnd.Range(0, 1e5)
			case 2:
				raw[i] = rnd.Range(86400, 2e5)
			default:
				raw[i] = rnd.Range(0, 50000)
			}
		}
		clean, _ := Clean(raw)
		return ValidateClean(clean) == nil
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCleanRejects(t *testing.T) {
	for i, bad := range []timeseries.Series{
		{math.NaN()}, {-1}, {86401}, {math.Inf(1)},
	} {
		if err := ValidateClean(bad); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if err := ValidateClean(timeseries.Series{0, 86400, 5}); err != nil {
		t.Fatalf("valid series rejected: %v", err)
	}
}

func TestPrepareEndToEnd(t *testing.T) {
	raw := timeseries.Series{1000, math.NaN(), 3000, -5, 2000, 95000, 1500, 2500}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	prep, err := Prepare("vx", start, raw, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if prep.ID != "vx" || !prep.Start.Equal(start) || prep.Series == nil || len(prep.Series.U) != len(raw) {
		t.Fatalf("prepared = %+v", prep)
	}
	if prep.Clean.Total() != 3 {
		t.Fatalf("clean repairs = %d, want 3", prep.Clean.Total())
	}
	if len(prep.Series.Cycles) == 0 {
		t.Fatal("no cycles derived")
	}
}
