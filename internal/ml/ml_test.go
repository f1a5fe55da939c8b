package ml

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestValidateXY(t *testing.T) {
	if err := ValidateXY(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty: %v", err)
	}
	if err := ValidateXY([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := ValidateXY([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if err := ValidateXY([][]float64{{}}, []float64{1}); err == nil {
		t.Fatal("zero-width rows accepted")
	}
	if err := ValidateXY([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

func TestDataset(t *testing.T) {
	d, err := NewDataset([]string{"a", "b"}, [][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.Width() != 2 {
		t.Fatalf("len=%d width=%d", d.Len(), d.Width())
	}
	sub := d.Subset([]int{2, 0})
	if sub.Len() != 2 || sub.Y[0] != 3 || sub.X[1][0] != 1 {
		t.Fatalf("subset wrong: %+v", sub)
	}
	if _, err := NewDataset([]string{"only-one"}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("name/width mismatch accepted")
	}
}

func TestMetricsKnownValues(t *testing.T) {
	yt := []float64{1, 2, 3}
	yp := []float64{2, 2, 1}
	mae, _ := MAE(yt, yp)
	if mae != 1 {
		t.Fatalf("MAE = %v, want 1", mae)
	}
	mse, _ := MSE(yt, yp)
	if want := (1.0 + 0 + 4) / 3; mse != want {
		t.Fatalf("MSE = %v, want %v", mse, want)
	}
	rmse, _ := RMSE(yt, yp)
	if math.Abs(rmse-math.Sqrt(5.0/3)) > 1e-12 {
		t.Fatalf("RMSE = %v", rmse)
	}
	me, _ := MeanError(yt, yp)
	if want := (-1.0 + 0 + 2) / 3; me != want {
		t.Fatalf("MeanError = %v, want %v", me, want)
	}
	r2, _ := R2(yt, yt)
	if r2 != 1 {
		t.Fatalf("perfect R2 = %v", r2)
	}
	r2c, _ := R2([]float64{5, 5}, []float64{1, 9})
	if r2c != 0 {
		t.Fatalf("constant-truth R2 = %v, want 0 by convention", r2c)
	}
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MAE(nil, nil); err == nil {
		t.Fatal("empty metric accepted")
	}
}

func TestKFoldPartitionProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 10
		k := int(kRaw%4) + 2
		folds, err := KFold(n, k, true, rng.New(seed))
		if err != nil {
			return false
		}
		if len(folds) != k {
			return false
		}
		seen := make([]int, n)
		for _, f := range folds {
			if len(f.Train)+len(f.Val) != n {
				return false
			}
			for _, i := range f.Val {
				seen[i]++
			}
			// Train and val must be disjoint.
			inVal := map[int]bool{}
			for _, i := range f.Val {
				inVal[i] = true
			}
			for _, i := range f.Train {
				if inVal[i] {
					return false
				}
			}
		}
		// Every sample appears in exactly one validation fold.
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKFoldBalancedSizes(t *testing.T) {
	folds, err := KFold(11, 3, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{len(folds[0].Val), len(folds[1].Val), len(folds[2].Val)}
	if sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 3 {
		t.Fatalf("fold sizes %v, want [4 4 3]", sizes)
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(10, 1, false, nil); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KFold(2, 3, false, nil); err == nil {
		t.Fatal("n < k accepted")
	}
	if _, err := KFold(10, 2, true, nil); err == nil {
		t.Fatal("shuffle without source accepted")
	}
}

// meanModel predicts the training mean: a deterministic stub for CV.
type meanModel struct{ mean float64 }

func (m *meanModel) Fit(x [][]float64, y []float64) error {
	var s float64
	for _, v := range y {
		s += v
	}
	m.mean = s / float64(len(y))
	return nil
}
func (m *meanModel) Predict([]float64) float64 { return m.mean }

// paramModel predicts its parameter; grid search must pick the parameter
// matching the constant target.
type paramModel struct{ v float64 }

func (m *paramModel) Fit([][]float64, []float64) error { return nil }
func (m *paramModel) Predict([]float64) float64        { return m.v }

func TestGridSearchPicksBest(t *testing.T) {
	x := make([][]float64, 15)
	y := make([]float64, 15)
	for i := range x {
		x[i] = []float64{0}
		y[i] = 7
	}
	d, _ := NewDataset(nil, x, y)
	res, err := GridSearchCV(
		func(p Params) Regressor { return &paramModel{v: p["v"]} },
		Grid{"v": {1, 7, 30}},
		d, 3, MAE, rng.New(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["v"] != 7 {
		t.Fatalf("best = %v, want v=7", res.Best)
	}
	if res.BestScore != 0 {
		t.Fatalf("best score = %v, want 0", res.BestScore)
	}
	if res.Evaluated != 3 {
		t.Fatalf("evaluated = %d, want 3", res.Evaluated)
	}
}

func TestGridExpandDeterministic(t *testing.T) {
	g := Grid{"b": {1, 2}, "a": {10}}
	got := g.Expand()
	if len(got) != 2 {
		t.Fatalf("expanded %d configs, want 2", len(got))
	}
	// Keys sorted: "a" iterates before "b".
	if got[0]["a"] != 10 || got[0]["b"] != 1 || got[1]["b"] != 2 {
		t.Fatalf("expansion order wrong: %v", got)
	}
	if fmt.Sprint(got[0]) == "" {
		t.Fatal("unreachable")
	}
}

func TestGridSearchEmptyGrid(t *testing.T) {
	d, _ := NewDataset(nil, [][]float64{{1}, {2}, {3}}, []float64{1, 2, 3})
	// An empty grid expands to one empty config and must still work.
	res, err := GridSearchCV(func(Params) Regressor { return &meanModel{} }, Grid{}, d, 3, MAE, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 1 {
		t.Fatalf("evaluated = %d, want 1", res.Evaluated)
	}
}

func TestParamsString(t *testing.T) {
	p := Params{"z": 1, "a": 2.5}
	if got := p.String(); got != "{a=2.5, z=1}" {
		t.Fatalf("String = %q", got)
	}
}

func TestPredictBatch(t *testing.T) {
	out := PredictBatch(&paramModel{v: 3}, [][]float64{{1}, {2}})
	if len(out) != 2 || out[0] != 3 || out[1] != 3 {
		t.Fatalf("batch = %v", out)
	}
}

// matrixSpy counts which fit path grid search takes and which matrices
// it passes, to verify fold-level matrix sharing.
type matrixSpy struct {
	mu       *sync.Mutex
	matrices map[*ColMatrix]int
	rowFits  *int
	v        float64
}

func (m *matrixSpy) Fit([][]float64, []float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	*m.rowFits++
	return nil
}

func (m *matrixSpy) FitMatrix(cm *ColMatrix, y []float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.matrices[cm]++
	return nil
}

func (m *matrixSpy) Predict([]float64) float64 { return m.v }

// TestGridSearchSharesFoldMatrices: every configuration of the grid
// must be fed the same k column matrices (one per fold), and the
// row-major Fit path must never run for a MatrixFitter.
func TestGridSearchSharesFoldMatrices(t *testing.T) {
	x := make([][]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = 7
	}
	d, _ := NewDataset(nil, x, y)
	var mu sync.Mutex
	matrices := make(map[*ColMatrix]int)
	rowFits := 0
	res, err := GridSearchCV(func(p Params) Regressor {
		return &matrixSpy{mu: &mu, matrices: matrices, rowFits: &rowFits, v: p["v"]}
	}, Grid{"v": {1, 7, 9, 30}}, d, 5, MAE, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["v"] != 7 {
		t.Fatalf("best = %v, want v=7", res.Best)
	}
	if rowFits != 0 {
		t.Fatalf("%d row-major fits for a MatrixFitter model", rowFits)
	}
	if len(matrices) != 5 {
		t.Fatalf("%d distinct fold matrices, want 5 (one per fold)", len(matrices))
	}
	for cm, uses := range matrices {
		if uses != 4 {
			t.Fatalf("fold matrix %p fit %d times, want once per config (4)", cm, uses)
		}
	}
}

// TestGridSearchDeterministic: equal seeds must yield equal winners and
// scores — the single up-front fold shuffle is the only random draw.
func TestGridSearchDeterministic(t *testing.T) {
	rnd := rng.New(42)
	x := make([][]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = []float64{rnd.Float64(), rnd.Float64()}
		y[i] = 3*x[i][0] + rnd.NormFloat64()
	}
	d, _ := NewDataset(nil, x, y)
	run := func() SearchResult {
		res, err := GridSearchCV(func(p Params) Regressor {
			return &meanModel{}
		}, Grid{"a": {1, 2}, "b": {1, 2, 3}}, d, 4, MAE, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BestScore != b.BestScore || a.Best.String() != b.Best.String() || a.Evaluated != 6 {
		t.Fatalf("non-deterministic grid search: %+v vs %+v", a, b)
	}
}

// TestColMatrixOrderAndBins: the cached presorted orders are stable by
// (value, row) and bin codes respect the edge semantics.
func TestColMatrixOrderAndBins(t *testing.T) {
	x := [][]float64{{3, 1}, {1, 1}, {3, 1}, {2, 1}, {1, 1}}
	cm, err := NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Len() != 5 || cm.Width() != 2 {
		t.Fatalf("shape %dx%d", cm.Len(), cm.Width())
	}
	ord := cm.Order()[0]
	want := []int32{1, 4, 3, 0, 2} // values 1,1,2,3,3 with row-id ties ascending
	for i := range want {
		if ord[i] != want[i] {
			t.Fatalf("order = %v, want %v", ord, want)
		}
	}
	if got := cm.Order(); &got[0][0] != &ord[0] {
		t.Fatal("Order not cached")
	}
	bn := cm.Bin(4)
	if len(bn.Edges[1]) != 0 {
		t.Fatalf("constant column grew %d edges", len(bn.Edges[1]))
	}
	for i := range x {
		if got := bn.Cols[0][i]; got != BinOf(x[i][0], bn.Edges[0]) {
			t.Fatalf("row %d: bin code %d inconsistent with BinOf", i, got)
		}
	}
	if cm.Bin(4) != bn {
		t.Fatal("Bin not cached per resolution")
	}
}

// TestColMatrixValidation mirrors ValidateXY's structural checks.
func TestColMatrixValidation(t *testing.T) {
	if _, err := NewColMatrix(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := NewColMatrix([][]float64{{}}); err == nil {
		t.Fatal("zero-width matrix accepted")
	}
	if _, err := NewColMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}
