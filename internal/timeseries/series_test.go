package timeseries

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSeriesStats(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if s.Sum() != 10 || s.Mean() != 2.5 {
		t.Fatalf("stats wrong: sum=%v mean=%v", s.Sum(), s.Mean())
	}
	if got := (Series{}).Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
}

func TestSliceClamps(t *testing.T) {
	s := Series{0, 1, 2, 3}
	if got := s.Slice(-5, 2); len(got) != 2 || got[0] != 0 {
		t.Fatalf("Slice(-5,2) = %v", got)
	}
	if got := s.Slice(2, 99); len(got) != 2 || got[1] != 3 {
		t.Fatalf("Slice(2,99) = %v", got)
	}
	if got := s.Slice(3, 1); len(got) != 0 {
		t.Fatalf("inverted Slice = %v, want empty", got)
	}
}

// craftedSeries consumes exactly the allowance after the listed days.
func craftedSeries() Series {
	// allowance 100: days 40+40+30=110 → due on day 2; then 50+60 → due
	// on day 4; then 30 (incomplete).
	return Series{40, 40, 30, 50, 60, 30}
}

func TestDeriveCycleBoundaries(t *testing.T) {
	vs, err := Derive("v", craftedSeries(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Cycles) != 3 {
		t.Fatalf("got %d cycles, want 3", len(vs.Cycles))
	}
	c0, c1, c2 := vs.Cycles[0], vs.Cycles[1], vs.Cycles[2]
	if !c0.Complete || c0.Start != 0 || c0.End != 3 || c0.Usage != 110 {
		t.Fatalf("cycle 0 wrong: %+v", c0)
	}
	if !c1.Complete || c1.Start != 3 || c1.End != 5 || c1.Usage != 110 {
		t.Fatalf("cycle 1 wrong: %+v", c1)
	}
	if c2.Complete || c2.Start != 5 || c2.End != 6 || c2.Usage != 30 {
		t.Fatalf("trailing cycle wrong: %+v", c2)
	}
}

func TestDeriveTarget(t *testing.T) {
	vs, _ := Derive("v", craftedSeries(), 100)
	wantD := []int{2, 1, 0, 1, 0, -1}
	for i, w := range wantD {
		if vs.D[i] != w {
			t.Fatalf("D[%d] = %d, want %d (full: %v)", i, vs.D[i], w, vs.D)
		}
	}
}

func TestDeriveCounterAndLeft(t *testing.T) {
	vs, _ := Derive("v", craftedSeries(), 100)
	wantC := []int{0, 1, 2, 0, 1, 0}
	for i, w := range wantC {
		if vs.C[i] != w {
			t.Fatalf("C[%d] = %d, want %d", i, vs.C[i], w)
		}
	}
	// Eq. 1: L(t) = T − Σ_{i=t−C(t)}^{t−1} U(i), clamped at 0.
	wantL := []float64{100, 60, 20, 100, 50, 100}
	for i, w := range wantL {
		if vs.L[i] != w {
			t.Fatalf("L[%d] = %v, want %v", i, vs.L[i], w)
		}
	}
}

func TestDeriveRejectsBadInput(t *testing.T) {
	if _, err := Derive("v", Series{}, 100); err != ErrEmptySeries {
		t.Fatalf("empty series: err = %v", err)
	}
	if _, err := Derive("v", Series{1}, 0); err == nil {
		t.Fatal("zero allowance accepted")
	}
	if _, err := Derive("v", Series{-1}, 100); err == nil {
		t.Fatal("negative utilization accepted")
	}
	if _, err := Derive("v", Series{math.NaN()}, 100); err == nil {
		t.Fatal("NaN utilization accepted")
	}
}

func TestDeriveInvariantsProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rnd := rng.New(seed)
		n := 20 + rnd.Intn(200)
		u := make(Series, n)
		for i := range u {
			if rnd.Bernoulli(0.3) {
				u[i] = 0
			} else {
				u[i] = rnd.Range(0, 5000)
			}
		}
		vs, err := Derive("p", u, 20000)
		if err != nil {
			return false
		}
		// Cycles tile the series exactly.
		pos := 0
		for _, c := range vs.Cycles {
			if c.Start != pos || c.End <= c.Start {
				return false
			}
			pos = c.End
		}
		if pos != n {
			return false
		}
		for tt := 0; tt < n; tt++ {
			if vs.L[tt] < 0 {
				return false
			}
			// D decreases by exactly 1 inside a complete cycle.
			if vs.D[tt] > 0 && tt+1 < n && vs.D[tt+1] >= 0 && vs.D[tt+1] != vs.D[tt]-1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteCyclesAndFirstCycle(t *testing.T) {
	vs, _ := Derive("v", craftedSeries(), 100)
	if got := len(vs.CompleteCycles()); got != 2 {
		t.Fatalf("CompleteCycles = %d, want 2", got)
	}
	c, ok := vs.FirstCycle()
	if !ok || c.Index != 0 {
		t.Fatalf("FirstCycle = %+v ok=%v", c, ok)
	}
}

func TestAvgDistance(t *testing.T) {
	d, err := AvgDistance(Series{1, 2, 3}, Series{2, 4, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.0 + 2 + 7) / 3; math.Abs(d-want) > 1e-12 {
		t.Fatalf("AvgDistance = %v, want %v", d, want)
	}
	// Truncates to common prefix.
	d, _ = AvgDistance(Series{1, 2}, Series{1, 2, 99})
	if d != 0 {
		t.Fatalf("prefix distance = %v, want 0", d)
	}
	if _, err := AvgDistance(Series{}, Series{1}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestAvgDistanceMatchesDefinition(t *testing.T) {
	d, err := AvgDistance(Series{1, 2, 3}, Series{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := (2.0 + 0 + 2) / 3; d != want {
		t.Fatalf("avg distance = %v, want %v", d, want)
	}
}

func TestDueDayIsCountedInsideCycle(t *testing.T) {
	// A single day consuming the whole allowance: cycle of one day,
	// D = 0 on that day.
	vs, err := Derive("v", Series{150}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs.Cycles) != 1 || !vs.Cycles[0].Complete || vs.D[0] != 0 {
		t.Fatalf("single-day cycle wrong: cycles=%+v D=%v", vs.Cycles, vs.D)
	}
}
