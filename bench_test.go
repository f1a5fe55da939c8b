// Package repro's root benchmark harness: one benchmark per paper table
// and figure (regenerating the experiment at reduced scale), the §5.1
// per-algorithm training-time study, and the DESIGN.md ablations.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/ml/tree"
	"repro/internal/rng"
	"repro/internal/snapstore"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// env lazily builds a shared small-scale environment; benchmarks must
// not mutate it.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		s := experiments.SmallScale()
		s.Corrupt = true
		benchEnv, benchErr = experiments.NewEnv(s)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

var (
	fleet24Once sync.Once
	fleet24Env  *experiments.Env
	fleet24Err  error
)

// fleet24 lazily builds the paper-scale 24-vehicle fleet used by the
// fleet-training benchmarks and the deployed-path golden.
func fleet24(tb testing.TB) *experiments.Env {
	tb.Helper()
	fleet24Once.Do(func() {
		s := experiments.FullScale()
		fleet24Env, fleet24Err = experiments.NewEnv(s)
	})
	if fleet24Err != nil {
		tb.Fatal(fleet24Err)
	}
	return fleet24Env
}

// mixedFleet24 is fleet24 as a deployment actually has it — 18 old, 3
// semi-new and 3 new vehicles (see mixedFleet).
func mixedFleet24(tb testing.TB) []engine.Vehicle {
	tb.Helper()
	return mixedFleet(tb, fleet24(tb).FleetVehicles())
}

// mixedFleet cuts every 8th vehicle to 0.75·T_v and every 8th+1 to
// 0.25·T_v, as fleetbench cuts its seed fleet: each 24 vehicles become
// 18 old, 3 semi-new and 3 new.
func mixedFleet(tb testing.TB, base []engine.Vehicle) []engine.Vehicle {
	tb.Helper()
	for i, v := range base {
		var share float64
		switch i % 8 {
		case 0:
			share = 0.75 // semi-new
		case 1:
			share = 0.25 // new
		default:
			continue
		}
		cum, keep := 0.0, 0
		for keep < len(v.Series.U) && cum < share*v.Series.Allowance {
			cum += v.Series.U[keep]
			keep++
		}
		cut, err := timeseries.Derive(v.Series.ID, v.Series.U.Slice(0, keep), v.Series.Allowance)
		if err != nil {
			tb.Fatal(err)
		}
		base[i] = engine.Vehicle{Series: cut, Start: v.Start}
	}
	counts := map[core.Category]int{}
	for _, v := range base {
		counts[core.Categorize(v.Series)]++
	}
	n := len(base) / 8
	if counts[core.Old] != len(base)-2*n || counts[core.SemiNew] != n || counts[core.New] != n {
		tb.Fatalf("fleet is %d old / %d semi-new / %d new, want %d/%d/%d",
			counts[core.Old], counts[core.SemiNew], counts[core.New], len(base)-2*n, n, n)
	}
	return base
}

// benchFleetTrain measures one full deployed-system training run — all
// 24 vehicles, candidate competition per old vehicle, cold-start
// strategies for the rest — through the engine's worker pool.
func benchFleetTrain(b *testing.B, workers int) {
	e := fleet24(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := e.TrainFleet(context.Background(), workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Statuses) != e.Scale.Vehicles {
			b.Fatalf("trained %d of %d vehicles", len(snap.Statuses), e.Scale.Vehicles)
		}
	}
}

// BenchmarkFleetTrain is the sequential reference (worker pool of 1).
func BenchmarkFleetTrain(b *testing.B) { benchFleetTrain(b, 1) }

// BenchmarkFleetTrainParallel scales the pool; per-vehicle seed
// derivation makes every variant bit-identical to BenchmarkFleetTrain,
// so the speedup is pure scheduling (expect ~linear until the core
// count or the slowest single vehicle dominates).
func BenchmarkFleetTrainParallel(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchFleetTrain(b, workers) })
	}
}

// benchReport measures the telemetry-update steady state on the given
// fleet: a retrain after vehicle i's series changed from base[i] to
// report[i]. Alternating between the two fleets keeps every iteration
// at exactly one changed vehicle, and an iteration that retrains other
// than want vehicles fails the benchmark.
func benchReport(b *testing.B, seed uint64, base, report []engine.Vehicle, want int) {
	eng := trainedEngine(b, seed, 1, base)
	b.ResetTimer()
	alternate(b, eng, base, report, want)
}

// trainedEngine returns an engine cold-trained on fleet.
func trainedEngine(b *testing.B, seed uint64, workers int, fleet []engine.Vehicle) *engine.Engine {
	cfg := core.DefaultPredictorConfig()
	cfg.Seed = seed
	eng, err := engine.New(engine.Config{Predictor: cfg, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Retrain(context.Background(), fleet); err != nil {
		b.Fatal(err)
	}
	return eng
}

// alternate times b.N retrains, on report for even iterations and on
// base for odd ones, each of which must retrain want vehicles.
func alternate(b *testing.B, eng *engine.Engine, base, report []engine.Vehicle, want int) {
	for n := 0; n < b.N; n++ {
		fleet := base
		if n%2 == 0 {
			fleet = report
		}
		snap, err := eng.Retrain(context.Background(), fleet)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Retrained != want {
			b.Fatalf("retrained %d vehicles for one vehicle's report, want %d", snap.Retrained, want)
		}
	}
}

// tailDayFleet is base with vehicle i one day longer, a day that
// completes no maintenance cycle.
func tailDayFleet(b *testing.B, base []engine.Vehicle, i int) []engine.Vehicle {
	u := base[i].Series.U
	pert, err := timeseries.Derive(base[i].Series.ID, append(u.Clone(), u[len(u)-1]), base[i].Series.Allowance)
	if err != nil {
		b.Fatal(err)
	}
	if len(pert.CompleteCycles()) != len(base[i].Series.CompleteCycles()) {
		b.Fatalf("vehicle %s: the tail day completes a cycle", pert.ID)
	}
	report := append([]engine.Vehicle(nil), base...)
	report[i] = engine.Vehicle{Series: pert, Start: base[i].Start}
	return report
}

// benchTailDay is benchReport for the daily report: base[i] gains one
// day that completes no maintenance cycle. It adds no label, so nothing
// may retrain — the report costs one forecast.
func benchTailDay(b *testing.B, seed uint64, base []engine.Vehicle, i int) {
	benchReport(b, seed, base, tailDayFleet(b, base, i), 0)
}

// BenchmarkIncrementalRetrain measures the telemetry-update steady
// state: a retrain after one of the 24 (all old) vehicles reported a
// day. The engine carries every model forward — the reporter's too,
// since the day adds no label — so the cost is the plan and the
// reporter's forecast, not a fit.
func BenchmarkIncrementalRetrain(b *testing.B) {
	e := fleet24(b)
	benchTailDay(b, e.Scale.Seed, e.FleetVehicles(), 0)
}

// BenchmarkIncrementalRetrainMixed is BenchmarkIncrementalRetrain on
// the fleet a deployment actually has (mixedFleet24) with an old
// vehicle reporting. The donors' first cycles do not change, so the
// cold-start vehicles must be carried forward too: this is what keeps
// the donor-pool fan-out (5.4 vehicles retrained per report) from
// coming back.
func BenchmarkIncrementalRetrainMixed(b *testing.B) {
	benchTailDay(b, fleet24(b).Scale.Seed, mixedFleet24(b), 2) // base[2] is the first vehicle left whole
}

// BenchmarkZeroDirtyGeneration times whole builds by wall clock at
// the 1 008-vehicle probe scale (experiments.Scale{1008, 1735, 42} cut
// by mixedFleet to 756 old, 126 semi-new and 126 new vehicles), on one
// cold-trained engine: zero-dirty rebuilds the unchanged fleet, and
// tail-day alternates it with one old vehicle's day that completes no
// cycle. Neither may fit anything, so they time what a build costs
// besides fitting. The cold train takes tens of seconds, so run it
// once: go test -run XXX -bench '^BenchmarkZeroDirtyGeneration$'
// -benchtime=20x -count=1 .
func BenchmarkZeroDirtyGeneration(b *testing.B) {
	env, err := experiments.NewEnv(experiments.Scale{Vehicles: 1008, Days: 1735, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	base := mixedFleet(b, env.FleetVehicles())
	report := tailDayFleet(b, base, 2) // base[2] is the first vehicle left whole
	eng := trainedEngine(b, env.Scale.Seed, runtime.GOMAXPROCS(0), base)
	b.Run("zero-dirty", func(b *testing.B) { alternate(b, eng, base, base, 0) })
	b.Run("tail-day", func(b *testing.B) { alternate(b, eng, base, report, 0) })
}

// BenchmarkCycleCompletingReport is the one report that does add labels:
// an old vehicle of the mixed fleet receives the day that completes its
// trailing maintenance cycle, so exactly that vehicle retrains — the
// §4.3 competition and refit on its longer labelled prefix.
func BenchmarkCycleCompletingReport(b *testing.B) {
	base := mixedFleet24(b)
	v := base[2] // the first vehicle left whole
	last := v.Series.CompleteCycles()
	end := last[len(last)-1].End // its last maintenance day
	upTo := func(days int) engine.Vehicle {
		vs, err := timeseries.Derive(v.Series.ID, v.Series.U.Slice(0, days), v.Series.Allowance)
		if err != nil {
			b.Fatal(err)
		}
		return engine.Vehicle{Series: vs, Start: v.Start}
	}
	report := append([]engine.Vehicle(nil), base...)
	base[2], report[2] = upTo(end-1), upTo(end)
	benchReport(b, fleet24(b).Scale.Seed, base, report, 1)
}

// BenchmarkSnapshotSaveLoad spills and restores one trained generation
// of the 48-vehicle fleetgen fleet (seed 42, cut 36/6/6 as fleetbench's
// boot workload runs it) through snapstore, the path a restart's
// recover_ready_s waits on. It reports the file's bytes per vehicle, the
// save time, the time to a servable generation (rows-ns/op: LoadRows
// reads and checks the whole file and decodes its rows, which is all a
// restart waits for before it serves) and the full load with every model
// decoded (load-ns/op), per iteration.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	env, err := experiments.NewEnv(experiments.Scale{Vehicles: 48, Days: 1735, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Predictor: core.DefaultPredictorConfig(), Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), mixedFleet(b, env.FleetVehicles()))
	if err != nil {
		b.Fatal(err)
	}
	store, err := snapstore.New(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var save, rows, load time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := store.Save("shard00", snap); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		r, err := store.LoadRows("shard00")
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		got, err := store.Load("shard00")
		if err != nil {
			b.Fatal(err)
		}
		load += time.Since(t2)
		rows += t2.Sub(t1)
		save += t1.Sub(t0)
		if len(r.Snapshot.Forecasts) != len(snap.Forecasts) || len(got.Models) != len(snap.Models) {
			b.Fatalf("restored %d forecasts and %d models, want %d and %d", len(r.Snapshot.Forecasts), len(got.Models), len(snap.Forecasts), len(snap.Models))
		}
	}
	b.StopTimer()
	st, err := os.Stat(filepath.Join(store.Dir(), "shard00.snap"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size())/float64(len(snap.Statuses)), "bytes/vehicle")
	b.ReportMetric(float64(save.Nanoseconds())/float64(b.N), "save-ns/op")
	b.ReportMetric(float64(rows.Nanoseconds())/float64(b.N), "rows-ns/op")
	b.ReportMetric(float64(load.Nanoseconds())/float64(b.N), "load-ns/op")
}

// BenchmarkFig1DataGeneration measures the full data path behind
// Figures 1–3: fleet synthesis plus the §3 preparation pipeline.
func BenchmarkFig1DataGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.SmallScale()
		s.Corrupt = true
		if _, err := experiments.NewEnv(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (all five algorithms, both
// training regimes).
func BenchmarkTable1(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table1(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4WindowSweep regenerates the Figure-4 window sweep.
func BenchmarkFig4WindowSweep(b *testing.B) {
	e := env(b)
	windows := []int{0, 3, 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure4(windows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the per-day error curves of Figure 5.
func BenchmarkFig5(b *testing.B) {
	e := env(b)
	t2 := []experiments.Table2Row{{Algorithm: core.RF, BestW: 3}, {Algorithm: core.BL, BestW: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure5(t2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the cold-start study of Table 3.
func BenchmarkTable3(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table3(3); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrain measures the per-vehicle training cost of one algorithm at
// one window — the §5.1 timing table (XGB slowest, RF next, BL/LR/LSVR
// fast; cost grows super-linearly with W).
func benchTrain(b *testing.B, alg core.Algorithm, window int) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewOldConfig()
	cfg.Window = window
	cfg.RestrictTrain = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateOld(vs, alg, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainBL(b *testing.B)   { benchTrain(b, core.BL, 0) }
func BenchmarkTrainLR(b *testing.B)   { benchTrain(b, core.LR, 0) }
func BenchmarkTrainLSVR(b *testing.B) { benchTrain(b, core.LSVR, 0) }
func BenchmarkTrainRF(b *testing.B)   { benchTrain(b, core.RF, 0) }
func BenchmarkTrainXGB(b *testing.B)  { benchTrain(b, core.XGB, 0) }

// Window-growth series for the "more than linearly with W" claim.
func BenchmarkTrainRF_W0(b *testing.B)  { benchTrain(b, core.RF, 0) }
func BenchmarkTrainRF_W6(b *testing.B)  { benchTrain(b, core.RF, 6) }
func BenchmarkTrainRF_W18(b *testing.B) { benchTrain(b, core.RF, 18) }

// BenchmarkPredict measures single-forecast latency of a fitted model —
// the quantity a deployed scheduler cares about.
func BenchmarkPredict(b *testing.B) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewOldConfig()
	cfg.Window = 6
	cfg.RestrictTrain = true
	res, err := core.EvaluateOld(vs, core.RF, cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := core.BuildRecords(vs, core.FeatureConfig{Window: 6, Normalize: true})
	if err != nil || len(recs) == 0 {
		b.Fatalf("no records: %v", err)
	}
	x := recs[len(recs)-1].X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Model.Predict(x)
	}
}

// Ablation benchmarks (DESIGN.md §5).

func BenchmarkAblationPooledVsPerVehicle(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationPooledVsPerVehicle(core.RF, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAugmentation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationAugmentation(core.RF, 3, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHistogramBins(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationHistogramBins(3, []int{8, 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetGeneration isolates the telematics simulator.
func BenchmarkFleetGeneration(b *testing.B) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 8
	cfg.Days = 1100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := telematics.GenerateFleet(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive isolates the §2 series derivation.
func BenchmarkDerive(b *testing.B) {
	e := env(b)
	u := e.Olds[0].U
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timeseries.Derive("v", u, timeseries.DefaultAllowance); err != nil {
			b.Fatal(err)
		}
	}
}

// mlBenchSizes are the training-set sizes the split-engine
// micro-benchmarks sweep; 200 is roughly one vehicle's restricted
// training set, 20000 a pooled multi-vehicle one.
var mlBenchSizes = []int{200, 2000, 20000}

// mlBenchData draws a deterministic synthetic regression dataset with a
// realistic mix of column shapes: quantized (tie-heavy), continuous,
// and low-cardinality features.
func mlBenchData(n, p int, seed uint64) ([][]float64, []float64) {
	rnd := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			switch j % 3 {
			case 0:
				x[i][j] = rnd.Float64() * 10
			case 1:
				x[i][j] = float64(rnd.Intn(50)) / 5
			default:
				x[i][j] = float64(rnd.Intn(7))
			}
		}
		y[i] = 3*x[i][0] - 2*x[i][1%p] + rnd.NormFloat64()
	}
	return x, y
}

// BenchmarkTreeFit measures a single exact-engine CART fit across
// training-set sizes (the unit of work both ensembles multiply).
func BenchmarkTreeFit(b *testing.B) {
	for _, n := range mlBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := mlBenchData(n, 6, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := tree.New(tree.Config{MaxDepth: 12, MinSamplesLeaf: 2})
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestFit measures a 20-tree forest fit: all trees share one
// presorted matrix and train from bootstrap multiplicities.
func BenchmarkForestFit(b *testing.B) {
	for _, n := range mlBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := mlBenchData(n, 6, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := forest.New(forest.Config{NEstimators: 20, MaxDepth: 12, MinSamplesLeaf: 2, Seed: 7})
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGBMFit measures a 50-round boosted fit: binning happens once,
// every round reuses the trainer's buffers.
func BenchmarkGBMFit(b *testing.B) {
	for _, n := range mlBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := mlBenchData(n, 6, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := gbm.New(gbm.Config{NEstimators: 50, MaxDepth: 6, Seed: 7})
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGridSearchCV measures the paper's 5-fold tuned selection for
// one vehicle and one algorithm on the coarse grid.
func BenchmarkGridSearchCV(b *testing.B) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewOldConfig()
	cfg.RestrictTrain = true
	cfg.GridSearch = true
	cfg.Grid = ml.Grid{"depth": {5, 10}, "estimators": {50, 100}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateOld(vs, core.RF, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkForward measures the rolling-origin evaluation protocol.
func BenchmarkWalkForward(b *testing.B) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewWalkForwardConfig()
	cfg.InitialTrainDays = 400
	cfg.StepDays = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateWalkForward(vs, core.RF, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
