package linreg

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestCoefficientsBitPinned pins the exact bits of three fits: plain
// OLS, ridge, and a collinear design whose centred Gram matrix
// [[4,4],[4,4]] has a zero second pivot, so the solve takes the
// diagonal-jitter retry. Any change to the solver's float operations or
// their order moves a bit here, even where the rounded goldens do not.
func TestCoefficientsBitPinned(t *testing.T) {
	rnd := rng.New(11)
	x := make([][]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		x[i] = []float64{rnd.Range(-5, 5), rnd.Range(0, 3), rnd.Range(-1, 1)}
		y[i] = 1.5*x[i][0] - 0.7*x[i][1] + 2*x[i][2] + 4 + rnd.NormFloat64()
	}
	cases := []struct {
		name string
		m    *Model
		x    [][]float64
		y    []float64
		want []uint64 // weights..., intercept
	}{
		{"ols", New(), x, y, []uint64{0x3ff650f994768c43, 0xbfe22af463c436e6, 0x40031dc13e70ba22, 0x400ddb6e5f2909c7}},
		{"ridge", NewRidge(2.5), x, y, []uint64{0x3ff5f169c986fdc0, 0xbfde5ecbc8f9b32a, 0x3fff22c3716fcfd6, 0x400d4a10de8dd5f4}},
		{"collinear", New(), [][]float64{{0, 0}, {0, 0}, {2, 2}, {2, 2}}, []float64{1, 2, 5, 6}, []uint64{0x3fefffffffeed1f4, 0x3ff0000000000000, 0x3ff8000000089706}},
	}
	for _, c := range cases {
		if err := c.m.Fit(c.x, c.y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		w, b, err := c.m.Coefficients()
		if err != nil {
			t.Fatal(err)
		}
		var got []uint64
		for _, v := range append(w, b) {
			got = append(got, math.Float64bits(v))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: got %#x, want %#x", c.name, got, c.want)
		}
	}
}
