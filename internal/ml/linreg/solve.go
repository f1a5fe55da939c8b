package linreg

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// errSingular is returned when the normal equations stay singular after
// every diagonal-jitter retry.
var errSingular = errors.New("linreg: matrix is singular to working precision")

// dense is a row-major matrix: the centred design, its Gram matrix and
// the Gram matrix's Cholesky factor.
type dense struct {
	rows, cols int
	data       []float64
}

// newDense allocates a rows×cols zero matrix. It panics on non-positive
// dimensions, as a dimensioning bug is unrecoverable programmer error.
func newDense(rows, cols int) *dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linreg: invalid dimensions %dx%d", rows, cols))
	}
	return &dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// row returns a view (not a copy) of row i.
func (m *dense) row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// tMulVec computes y = Mᵀ·x (x has len rows, y has len cols).
func (m *dense) tMulVec(x []float64) []float64 {
	y := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range m.row(i) {
			y[j] += v * xi
		}
	}
	return y
}

// gram computes G = MᵀM + ridge·I (cols×cols).
func (m *dense) gram(ridge float64) *dense {
	g := newDense(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.row(i)
		for a := 0; a < m.cols; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			ga := g.row(a)
			for b := a; b < m.cols; b++ {
				ga[b] += va * row[b]
			}
		}
	}
	// Mirror the upper triangle and add the ridge term.
	for a := 0; a < m.cols; a++ {
		g.data[a*m.cols+a] += ridge
		for b := a + 1; b < m.cols; b++ {
			g.data[b*m.cols+a] = g.data[a*m.cols+b]
		}
	}
	return g
}

// cholesky factorizes a symmetric positive-definite A = L·Lᵀ and returns
// the lower-triangular L, or errSingular at a non-positive pivot.
func cholesky(a *dense) (*dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linreg: Cholesky requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l := newDense(n, n)
	for j := 0; j < n; j++ {
		lj := l.row(j)
		d := a.data[j*n+j]
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, errSingular
		}
		d = math.Sqrt(d)
		lj[j] = d
		for i := j + 1; i < n; i++ {
			li := l.row(i)
			s := a.data[i*n+j]
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / d
		}
	}
	return l, nil
}

// solveCholesky solves A·x = b given the Cholesky factor L of A.
func solveCholesky(l *dense, b []float64) []float64 {
	n := l.rows
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Backward substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.data[k*n+i] * x[k]
		}
		x[i] = s / l.data[i*n+i]
	}
	return x
}

// solveSPD solves A·x = b for a symmetric positive-definite A via
// Cholesky. If A is singular it retries with escalating diagonal jitter
// before giving up, which makes OLS on collinear feature sets behave like
// a minimally-regularized ridge instead of failing.
func solveSPD(a *dense, b []float64) ([]float64, error) {
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		work := a
		if jitter > 0 {
			work = &dense{rows: a.rows, cols: a.cols, data: slices.Clone(a.data)}
			for i := 0; i < work.rows; i++ {
				work.data[i*work.cols+i] += jitter
			}
		}
		if l, err := cholesky(work); err == nil {
			return solveCholesky(l, b), nil
		}
		if jitter == 0 {
			jitter = 1e-10 * (1 + maxDiag(a))
		} else {
			jitter *= 100
		}
	}
	return nil, errSingular
}

func maxDiag(a *dense) float64 {
	m := 0.0
	for i := 0; i < a.rows; i++ {
		if v := math.Abs(a.data[i*a.cols+i]); v > m {
			m = v
		}
	}
	return m
}

// leastSquares solves min‖X·w − y‖² (+ ridge‖w‖²) through the normal
// equations. X is n×p with n ≥ 1, y has length n.
func leastSquares(x *dense, y []float64, ridge float64) ([]float64, error) {
	if len(y) != x.rows {
		return nil, fmt.Errorf("linreg: least squares dimension mismatch %d vs %d", len(y), x.rows)
	}
	return solveSPD(x.gram(ridge), x.tMulVec(y))
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linreg: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
