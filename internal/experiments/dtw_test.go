package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

// fullDTW is the textbook unconstrained, path-normalised DTW over the
// whole (n+1)×(m+1) table: the reference dtw must match once its band
// admits every cell. Ties prefer match, then insertion, then deletion,
// as dtw does, so the path lengths agree too.
func fullDTW(a, b timeseries.Series) float64 {
	n, m := len(a), len(b)
	type cell struct {
		cost float64
		len  int
	}
	t := make([][]cell, n+1)
	for i := range t {
		t[i] = make([]cell, m+1)
		for j := range t[i] {
			t[i][j] = cell{math.Inf(1), 0}
		}
	}
	t[0][0] = cell{}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			best := t[i-1][j-1]
			if t[i-1][j].cost < best.cost {
				best = t[i-1][j]
			}
			if t[i][j-1].cost < best.cost {
				best = t[i][j-1]
			}
			t[i][j] = cell{best.cost + math.Abs(a[i-1]-b[j-1]), best.len + 1}
		}
	}
	return t[n][m].cost / float64(t[n][m].len)
}

// wide is a band that admits every cell of a and b's table.
func wide(a, b timeseries.Series) int { return len(a) + len(b) }

func TestDTWIdentityIsZero(t *testing.T) {
	s := timeseries.Series{1, 5, 2, 8, 3}
	d, err := dtw(s, s, wide(s, s))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("DTW(s, s) = %v, want 0", d)
	}
}

func TestDTWAbsorbsTimeShift(t *testing.T) {
	// A shifted copy is far under point-wise distance but close under
	// DTW — the motivation for the paper's cited extension [9].
	base := timeseries.Series{0, 0, 10, 10, 10, 0, 0, 0, 0, 0}
	shift := timeseries.Series{0, 0, 0, 0, 10, 10, 10, 0, 0, 0}
	avg, err := timeseries.AvgDistance(base, shift)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bandedDTW(base, shift)
	if err != nil {
		t.Fatal(err)
	}
	if d >= avg {
		t.Fatalf("DTW %v not below point-wise %v on shifted series", d, avg)
	}
	if d != 0 {
		t.Fatalf("pure shift should warp to 0, got %v", d)
	}
}

func TestDTWHandlesDifferentLengths(t *testing.T) {
	a := timeseries.Series{1, 2, 3}
	b := timeseries.Series{1, 1, 2, 2, 3, 3}
	// A band of 1 is widened to the length difference.
	for _, band := range []int{1, wide(a, b)} {
		d, err := dtw(a, b, band)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("band %d: stretched copy distance = %v, want 0", band, d)
		}
	}
}

// randomPair draws two series of independent random lengths.
func randomPair(seed uint64, lo, hi float64) (timeseries.Series, timeseries.Series) {
	rnd := rng.New(seed)
	a := make(timeseries.Series, 3+rnd.Intn(20))
	b := make(timeseries.Series, 3+rnd.Intn(20))
	for i := range a {
		a[i] = rnd.Range(lo, hi)
	}
	for i := range b {
		b[i] = rnd.Range(lo, hi)
	}
	return a, b
}

func TestDTWSymmetryProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		a, b := randomPair(seed, 0, 100)
		d1, err1 := bandedDTW(a, b)
		d2, err2 := bandedDTW(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(d1-d2) < 1e-9
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDTWNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		a, b := randomPair(seed, -50, 50)
		d, err := bandedDTW(a, b)
		return err == nil && d >= 0
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBandedDTWWideBandMatchesFull(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		a, b := randomPair(seed, 0, 10)
		d, err := dtw(a, b, wide(a, b))
		return err == nil && d == fullDTW(a, b)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBandedDTWNarrowBandRestrictsWarping(t *testing.T) {
	base := timeseries.Series{0, 0, 10, 10, 10, 0, 0, 0, 0, 0}
	shift := timeseries.Series{0, 0, 0, 0, 10, 10, 10, 0, 0, 0}
	narrow, err := dtw(base, shift, 1)
	if err != nil {
		t.Fatal(err)
	}
	broad, err := dtw(base, shift, 5)
	if err != nil {
		t.Fatal(err)
	}
	if narrow <= broad {
		t.Fatalf("narrow band %v should cost more than wide band %v", narrow, broad)
	}
}

func TestBandedDTWValidation(t *testing.T) {
	if _, err := dtw(timeseries.Series{1}, timeseries.Series{1}, 0); err == nil {
		t.Fatal("zero band accepted")
	}
}

func TestDTWEmptyInputs(t *testing.T) {
	if _, err := bandedDTW(nil, timeseries.Series{1}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := bandedDTW(timeseries.Series{1}, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}
