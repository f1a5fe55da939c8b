package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// testEnv is shared across the integration tests in this package; the
// environment is deterministic, so sharing is safe and keeps the test
// binary fast.
var testEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if testEnv != nil {
		return testEnv
	}
	s := SmallScale()
	s.Corrupt = true
	e, err := NewEnv(s)
	if err != nil {
		t.Fatal(err)
	}
	testEnv = e
	return e
}

func TestNewEnvBuildsFleet(t *testing.T) {
	e := env(t)
	if len(e.Prepared) != e.Scale.Vehicles {
		t.Fatalf("prepared %d of %d vehicles", len(e.Prepared), e.Scale.Vehicles)
	}
	if len(e.Olds) == 0 {
		t.Fatal("no old vehicles")
	}
	if e.CleanRepairs == 0 {
		t.Fatal("corruption enabled but cleaning repaired nothing")
	}
}

func TestFigure1(t *testing.T) {
	series, err := env(t).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	for _, s := range series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("series %s malformed", s.Name)
		}
		for _, v := range s.Y {
			if v < 0 || v > 86400 {
				t.Fatalf("series %s has out-of-range utilization %v", s.Name, v)
			}
		}
	}
	if series[0].Name == series[1].Name {
		t.Fatal("sample vehicles not distinct")
	}
}

func TestFigure2SawtoothShape(t *testing.T) {
	series, err := env(t).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		touchesZero := false
		for i := range s.Y {
			if s.Y[i] == 0 {
				touchesZero = true
			}
			if s.Y[i] < 0 {
				t.Fatalf("negative D in %s", s.Name)
			}
		}
		if !touchesZero {
			t.Fatalf("series %s never reaches a maintenance day", s.Name)
		}
	}
}

func TestCycleStatistics(t *testing.T) {
	stats := env(t).CycleStatistics()
	if len(stats) == 0 {
		t.Fatal("no cycle statistics")
	}
	longerFirst := 0
	for _, st := range stats {
		if st.CycleCount < 1 || st.FirstCycle <= 0 {
			t.Fatalf("bad stats %+v", st)
		}
		if st.LaterMedian > 0 && st.FirstCycle > st.LaterMedian {
			longerFirst++
		}
	}
	// The paper documents a markedly longer first cycle; the ramp-up
	// must reproduce it for the clear majority of vehicles.
	if longerFirst*2 < len(stats) {
		t.Fatalf("first cycle longer for only %d of %d vehicles", longerFirst, len(stats))
	}
}

func TestFigure3VerticalSteps(t *testing.T) {
	series, err := env(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.X) < 10 {
			t.Fatalf("series %s too short", s.Name)
		}
		// L decreases (weakly) while D decreases: check that within a
		// cycle the pairs are jointly monotone in time (both fall).
		for i := 1; i < len(s.X); i++ {
			if s.X[i] > s.X[i-1]+1e-9 {
				t.Fatalf("L increased inside a cycle for %s", s.Name)
			}
			if s.Y[i] != s.Y[i-1]-1 {
				t.Fatalf("D did not decrease by one day for %s", s.Name)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := env(t).Table1(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	byAlg := map[core.Algorithm]Table1Row{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
		if math.IsNaN(r.AllData) || math.IsNaN(r.Restricted) {
			t.Fatalf("%s: NaN entries", r.Algorithm)
		}
	}
	// Headline shape 1: BL unchanged by restriction (it is not trained).
	bl := byAlg[core.BL]
	if math.Abs(bl.AllData-bl.Restricted) > 1e-9 {
		t.Fatalf("BL changed under restriction: %v vs %v", bl.AllData, bl.Restricted)
	}
	// Headline shape 2: restriction strictly improves every trained
	// algorithm (paper: 48–65 % reductions).
	for _, alg := range core.TrainedAlgorithms() {
		r := byAlg[alg]
		if r.Restricted >= r.AllData {
			t.Fatalf("%s: restriction did not help (%v -> %v)", alg, r.AllData, r.Restricted)
		}
		if r.ReductionPct < 20 {
			t.Fatalf("%s: reduction only %.0f%%, expected substantial", alg, r.ReductionPct)
		}
	}
	// Headline shape 3: the best non-linear model beats BL and LR on
	// the restricted regime.
	bestNonlinear := math.Min(byAlg[core.RF].Restricted, byAlg[core.XGB].Restricted)
	if bestNonlinear >= bl.Restricted {
		t.Fatalf("non-linear models (%v) did not beat the baseline (%v)", bestNonlinear, bl.Restricted)
	}
	if bestNonlinear > byAlg[core.LR].Restricted*1.1 {
		t.Fatalf("non-linear models (%v) clearly worse than LR (%v)", bestNonlinear, byAlg[core.LR].Restricted)
	}
}

func TestFigure4AndTable2(t *testing.T) {
	e := env(t)
	windows := []int{0, 3, 6}
	series, err := e.Figure4(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.EMRE) != len(windows) || len(s.ImprovementPct) != len(windows) {
			t.Fatalf("%s: malformed sweep", s.Algorithm)
		}
		if s.ImprovementPct[0] != 0 {
			t.Fatalf("%s: W=0 improvement %v, want 0", s.Algorithm, s.ImprovementPct[0])
		}
		if s.Algorithm == core.BL {
			for i := range s.EMRE {
				if math.Abs(s.EMRE[i]-s.EMRE[0]) > 1e-9 {
					t.Fatal("BL must be constant across windows")
				}
			}
		}
	}
	rows, err := Table2(series)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Algorithm != series[i].Algorithm {
			t.Fatal("Table 2 order mismatch")
		}
		// The best error must equal the sweep minimum.
		minV := math.Inf(1)
		for _, v := range series[i].EMRE {
			minV = math.Min(minV, v)
		}
		if r.EMRE != minV {
			t.Fatalf("%s: best EMRE %v != sweep min %v", r.Algorithm, r.EMRE, minV)
		}
	}
	if _, err := Table2(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := e.Figure4([]int{3, 6}); err == nil {
		t.Fatal("sweep without W=0 accepted")
	}
}

func TestFigure5ErrorsShrinkTowardDeadline(t *testing.T) {
	e := env(t)
	t2 := []Table2Row{{Algorithm: core.RF, BestW: 3}, {Algorithm: core.BL, BestW: 0}}
	series, err := e.Figure5(t2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Days) < 10 {
			t.Fatalf("%s: only %d day buckets", s.Algorithm, len(s.Days))
		}
		// Trend check: mean error over the near half must be below the
		// far half (the paper: "the closer to the deadline, the
		// smaller the error").
		half := len(s.Days) / 2
		var near, far float64
		for i := 0; i < half; i++ {
			near += s.EMRE[i]
		}
		for i := half; i < len(s.Days); i++ {
			far += s.EMRE[i]
		}
		near /= float64(half)
		far /= float64(len(s.Days) - half)
		if near >= far {
			t.Fatalf("%s: near-deadline error %v not below far error %v", s.Algorithm, near, far)
		}
	}
}

func TestSplitColdStart(t *testing.T) {
	split, err := env(t).SplitColdStart()
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Train) == 0 || len(split.Test) == 0 {
		t.Fatalf("degenerate split %d/%d", len(split.Train), len(split.Test))
	}
	seen := map[string]bool{}
	for _, vs := range split.Train {
		seen[vs.ID] = true
	}
	for _, vs := range split.Test {
		if seen[vs.ID] {
			t.Fatalf("vehicle %s in both sides", vs.ID)
		}
	}
	// 70/30, train side larger.
	if len(split.Train) <= len(split.Test) {
		t.Fatalf("train %d not larger than test %d", len(split.Train), len(split.Test))
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := env(t).Table3(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // BL + 4 Sim + 4 Uni
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	var bl, bestModel float64 = math.NaN(), math.Inf(1)
	for _, r := range rows {
		if r.Model == "BL" {
			bl = r.SemiNewEMRE
			continue
		}
		if !math.IsNaN(r.SemiNewEMRE) && r.SemiNewEMRE < bestModel {
			bestModel = r.SemiNewEMRE
		}
	}
	if math.IsNaN(bl) {
		t.Fatal("no BL row")
	}
	// Headline shape: the baseline performs badly for semi-new
	// vehicles; the best ML model clearly beats it.
	if bestModel >= bl {
		t.Fatalf("best model %v did not beat semi-new baseline %v", bestModel, bl)
	}
	// New-vehicle EGlobal present exactly for the Uni rows.
	uniRows := 0
	for _, r := range rows {
		if !math.IsNaN(r.NewEGlobal) {
			uniRows++
			if r.NewEGlobal <= 0 {
				t.Fatalf("%s: non-positive EGlobal", r.Model)
			}
		}
	}
	if uniRows != 4 {
		t.Fatalf("%d rows with new-vehicle EGlobal, want 4", uniRows)
	}
}

func TestTable3SimilarityMeasureAblation(t *testing.T) {
	rows, err := env(t).Table3DTW(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.SemiNewEMRE) || !strings.HasSuffix(r.Model, "_Sim[dtw]") {
			t.Fatalf("%s: EMRE %v", r.Model, r.SemiNewEMRE)
		}
	}
}

func TestTiming(t *testing.T) {
	rows, err := env(t).Timing(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.MeanTrainSeconds <= 0 || r.Vehicles == 0 {
			t.Fatalf("%s: empty timing row %+v", r.Algorithm, r)
		}
	}
}

func TestAblations(t *testing.T) {
	e := env(t)
	if rows, err := e.AblationPooledVsPerVehicle(core.RF, 3); err != nil || len(rows) != 2 {
		t.Fatalf("pooled ablation: %v %v", rows, err)
	}
	if rows, err := e.AblationAugmentation(core.RF, 3, 3); err != nil || len(rows) != 2 {
		t.Fatalf("augmentation ablation: %v %v", rows, err)
	}
	if rows, err := e.AblationHistogramBins(3, []int{8, 64}); err != nil || len(rows) != 2 {
		t.Fatalf("bins ablation: %v %v", rows, err)
	}
	rows, err := e.AblationRestriction(core.RF, 0)
	if err != nil || len(rows) != 2 {
		t.Fatalf("restriction ablation: %v %v", rows, err)
	}
	if rows[1].EMRE >= rows[0].EMRE {
		t.Fatalf("restriction ablation shape wrong: %+v", rows)
	}
}
