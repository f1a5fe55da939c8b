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

func TestMinMaxScaler(t *testing.T) {
	var s MinMaxScaler
	if err := s.Fit([]float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if s.Transform(10) != 0 || s.Transform(30) != 1 || s.Transform(20) != 0.5 {
		t.Fatal("wrong scaling")
	}
	// Out-of-range extrapolates (not clipped) so inverse stays exact.
	if s.Transform(40) != 1.5 {
		t.Fatalf("extrapolation = %v, want 1.5", s.Transform(40))
	}
	if got := s.Inverse(s.Transform(17.3)); math.Abs(got-17.3) > 1e-12 {
		t.Fatalf("inverse round trip = %v", got)
	}
}

func TestMinMaxScalerConstant(t *testing.T) {
	var s MinMaxScaler
	if err := s.Fit([]float64{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if s.Transform(5) != 0 || s.Inverse(0) != 5 {
		t.Fatal("constant input mishandled")
	}
}

func TestScalerErrors(t *testing.T) {
	var s MinMaxScaler
	if err := s.Fit(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if err := s.Fit([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN fit accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unfitted Transform did not panic")
		}
	}()
	(&MinMaxScaler{}).Transform(1)
}

func TestStandardScaler(t *testing.T) {
	var s StandardScaler
	if err := s.Fit([]float64{2, 4, 6}); err != nil {
		t.Fatal(err)
	}
	if got := s.Transform(4); got != 0 {
		t.Fatalf("mean transforms to %v, want 0", got)
	}
	if got := s.Inverse(s.Transform(5.5)); math.Abs(got-5.5) > 1e-12 {
		t.Fatalf("inverse round trip = %v", got)
	}
	var c StandardScaler
	if err := c.Fit([]float64{3, 3}); err != nil {
		t.Fatal(err)
	}
	if c.Transform(3) != 0 {
		t.Fatal("constant standard scaling wrong")
	}
}

func TestScalerRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rnd := rng.New(seed)
		vals := make([]float64, 20)
		for i := range vals {
			vals[i] = rnd.Range(-1e4, 1e4)
		}
		var mm MinMaxScaler
		var st StandardScaler
		if mm.Fit(vals) != nil || st.Fit(vals) != nil {
			return false
		}
		for _, v := range vals {
			if math.Abs(mm.Inverse(mm.Transform(v))-v) > 1e-6 {
				return false
			}
			if math.Abs(st.Inverse(st.Transform(v))-v) > 1e-6 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateDaily(t *testing.T) {
	day := time.Date(2019, 6, 3, 0, 0, 0, 0, time.UTC)
	obs := []Observation{
		{At: day.Add(26 * time.Hour), Seconds: 100}, // day 1 (unsorted input)
		{At: day.Add(2 * time.Hour), Seconds: 40},   // day 0
		{At: day.Add(30 * time.Hour), Seconds: 60},  // day 1
		{At: day.Add(96 * time.Hour), Seconds: 10},  // day 4
	}
	start, u, err := AggregateDaily(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !start.Equal(day) {
		t.Fatalf("start = %v", start)
	}
	want := timeseries.Series{40, 160, 0, 0, 10}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("daily = %v, want %v", u, want)
		}
	}
	if _, _, err := AggregateDaily(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestEnrich(t *testing.T) {
	// 2019-06-03 is a Monday.
	start := time.Date(2019, 6, 3, 0, 0, 0, 0, time.UTC)
	cal, err := Enrich(start, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cal[0].DayOfWeek != 0 || cal[0].IsWeekend {
		t.Fatalf("Monday features wrong: %+v", cal[0])
	}
	if cal[5].DayOfWeek != 5 || !cal[5].IsWeekend {
		t.Fatalf("Saturday features wrong: %+v", cal[5])
	}
	if cal[0].Month != 6 {
		t.Fatalf("month = %d", cal[0].Month)
	}
	if _, err := Enrich(start, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestPrepareEndToEnd(t *testing.T) {
	raw := timeseries.Series{1000, math.NaN(), 3000, -5, 2000, 95000, 1500, 2500}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	prep, err := Prepare("vx", start, raw, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if prep.ID != "vx" || prep.Series == nil || len(prep.Calendar) != len(raw) {
		t.Fatalf("prepared = %+v", prep)
	}
	if prep.Clean.Total() != 3 {
		t.Fatalf("clean repairs = %d, want 3", prep.Clean.Total())
	}
	if len(prep.Series.Cycles) == 0 {
		t.Fatal("no cycles derived")
	}
}
