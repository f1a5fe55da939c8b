package linreg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a dense matrix from equal-length rows.
func fromRows(rows [][]float64) *dense {
	m := newDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.row(i), r)
	}
	return m
}

// mulVec computes M·x.
func mulVec(m *dense, x []float64) []float64 {
	y := make([]float64, m.rows)
	for i := range y {
		y[i] = dot(m.row(i), x)
	}
	return y
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newDense(0, 3) did not panic")
		}
	}()
	newDense(0, 3)
}

func TestTMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := m.tMulVec([]float64{1, 2, 3})
	// Mᵀx = [1+6+15, 2+8+18] = [22, 28]
	if y[0] != 22 || y[1] != 28 {
		t.Fatalf("tMulVec = %v, want [22 28]", y)
	}
}

func TestGramSymmetryAndRidge(t *testing.T) {
	g := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}).gram(0.5)
	if g.rows != 2 || g.cols != 2 {
		t.Fatalf("Gram is %dx%d, want 2x2", g.rows, g.cols)
	}
	if g.row(0)[1] != g.row(1)[0] {
		t.Fatal("Gram not symmetric")
	}
	// G[0][0] = 1+9+25 + ridge = 35.5
	if !almostEq(g.row(0)[0], 35.5, 1e-12) {
		t.Fatalf("G[0][0] = %v, want 35.5", g.row(0)[0])
	}
}

func TestDot(t *testing.T) {
	if dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dot length mismatch did not panic")
		}
	}()
	dot([]float64{1}, []float64{1, 2})
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
	l, err := cholesky(fromRows([][]float64{{4, 2}, {2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.row(0)[0], 2, 1e-12) || !almostEq(l.row(1)[0], 1, 1e-12) || !almostEq(l.row(1)[1], math.Sqrt2, 1e-12) {
		t.Fatalf("wrong factor: %v", l.data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	// Eigenvalues 3, -1.
	if _, err := cholesky(fromRows([][]float64{{1, 2}, {2, 1}})); err == nil {
		t.Fatal("indefinite matrix factorized")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := cholesky(fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestSolveSPDExact(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	x, err := solveSPD(a, []float64{10, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·x = b.
	b := mulVec(a, x)
	if !almostEq(b[0], 10, 1e-9) || !almostEq(b[1], 9, 1e-9) {
		t.Fatalf("A·x = %v, want [10 9]", b)
	}
}

func TestSolveSPDSingularFallback(t *testing.T) {
	// Rank-deficient Gram of perfectly collinear columns: the jitter
	// fallback must still return a finite solution.
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	x, err := solveSPD(a.gram(0), a.tMulVec([]float64{1, 2}))
	if err != nil {
		t.Fatalf("jitter fallback failed: %v", err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", x)
		}
	}
}

func TestSolveSPDPropertyRoundTrip(t *testing.T) {
	rnd := rng.New(17)
	if err := quick.Check(func(seed uint64) bool {
		n := 1 + int(seed%5)
		// Build a random SPD matrix A = BᵀB + I.
		b := newDense(n+2, n)
		for i := range b.data {
			b.data[i] = rnd.NormFloat64()
		}
		a := b.gram(1)
		want := make([]float64, n)
		for i := range want {
			want[i] = rnd.Range(-5, 5)
		}
		got, err := solveSPD(a, mulVec(a, want))
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-6*(1+math.Abs(want[i]))) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresRecoversPlane(t *testing.T) {
	// y = 3x1 − 2x2 exactly; OLS must recover the coefficients.
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 3}}
	y := make([]float64, len(rows))
	for i, r := range rows {
		y[i] = 3*r[0] - 2*r[1]
	}
	w, err := leastSquares(fromRows(rows), y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w[0], 3, 1e-9) || !almostEq(w[1], -2, 1e-9) {
		t.Fatalf("w = %v, want [3 -2]", w)
	}
}

func TestLeastSquaresDimensionMismatch(t *testing.T) {
	if _, err := leastSquares(fromRows([][]float64{{1}, {2}}), []float64{1}, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
