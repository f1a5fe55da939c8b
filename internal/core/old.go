package core

import (
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// OldConfig parameterizes the §4.3 methodology for old vehicles: one
// model per vehicle, chronological 70/30 split, optional restriction of
// the training set to the last-29-day region, optional grid search with
// 5-fold CV, and optional time-reference augmentation.
type OldConfig struct {
	// Window is W, the past-utilization window (0 = univariate).
	Window int
	// TrainFraction is the chronological split (paper: 0.7).
	TrainFraction float64
	// RestrictTrain keeps only training rows with D(t) ∈ Eval (Table 1,
	// right column).
	RestrictTrain bool
	// Eval is D̃ for evaluation (and training restriction); nil means
	// the paper default {1..29}.
	Eval DTilde
	// Augment adds this many time-shifted resamples of the training
	// region to the training records (§4; 0 disables).
	Augment int
	// GridSearch enables hyper-parameter selection by K-fold CV on the
	// training records; otherwise DefaultParams are used.
	GridSearch bool
	// Grid overrides the search space when GridSearch is on (nil →
	// CoarseGrid).
	Grid ml.Grid
	// CVFolds is K for cross-validation (paper: 5).
	CVFolds int
	// Normalize scales L and U features by T_v (paper §3, step ii).
	Normalize bool
	// Seed drives augmentation sampling, CV shuffling and model seeds.
	Seed uint64
}

// NewOldConfig returns the paper-default configuration: W = 0, 70/30
// split, evaluation on D̃ = {1..29}, normalization on, 5 CV folds.
func NewOldConfig() OldConfig {
	return OldConfig{
		Window:        0,
		TrainFraction: 0.7,
		Eval:          DefaultDTilde(),
		CVFolds:       5,
		Normalize:     true,
		Seed:          1,
	}
}

func (c *OldConfig) validate() error {
	if c.Window < 0 {
		return fmt.Errorf("core: negative window %d", c.Window)
	}
	if c.TrainFraction <= 0 || c.TrainFraction >= 1 {
		return fmt.Errorf("core: train fraction %.3f outside (0,1)", c.TrainFraction)
	}
	if c.GridSearch && c.CVFolds < 2 {
		return fmt.Errorf("core: grid search needs >= 2 CV folds, got %d", c.CVFolds)
	}
	return nil
}

// OldResult is the outcome of evaluating one algorithm on one old
// vehicle.
type OldResult struct {
	// Report holds the per-day test predictions.
	Report *ErrorReport
	// Params is the hyper-parameter assignment actually used.
	Params ml.Params
	// TrainRecords counts training rows after restriction/augmentation.
	TrainRecords int
	// Model is the fitted regressor (usable for further prediction).
	Model ml.Regressor
}

// EvaluateOld runs the §4.3 methodology for one old vehicle and one
// algorithm: split chronologically, build windowed records, train (with
// optional restriction, augmentation and grid search), and evaluate on
// the held-out tail. The returned report contains every test day with a
// known target; callers compute MRE/Global from it.
func EvaluateOld(vs *timeseries.VehicleSeries, alg Algorithm, cfg OldConfig) (*OldResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if got := Categorize(vs); got != Old {
		return nil, fmt.Errorf("core: vehicle %s is %s, not old", vs.ID, got)
	}
	eval := cfg.Eval
	if eval == nil {
		eval = DefaultDTilde()
	}

	n := len(vs.U)
	cut := int(float64(n) * cfg.TrainFraction)
	if cut <= cfg.Window || cut >= n {
		return nil, fmt.Errorf("core: vehicle %s: split at day %d of %d leaves no usable side", vs.ID, cut, n)
	}

	fcfg := FeatureConfig{Window: cfg.Window, Normalize: cfg.Normalize}
	trainCfg := fcfg
	if cfg.RestrictTrain {
		trainCfg.Restrict = eval
	}
	trainRecs, err := BuildRecordsRange(vs, 0, cut, trainCfg)
	if err != nil {
		return nil, err
	}
	rnd := rng.New(cfg.Seed ^ 0x517cc1b727220a95)
	if cfg.Augment > 0 {
		aug, err := AugmentTimeShift(vs, 0, cut, trainCfg, cfg.Augment, rnd)
		if err != nil {
			return nil, err
		}
		trainRecs = append(trainRecs, aug...)
	}
	if len(trainRecs) == 0 {
		return nil, fmt.Errorf("core: vehicle %s: no training records (window %d, restrict %v)", vs.ID, cfg.Window, cfg.RestrictTrain)
	}
	testRecs, err := BuildRecordsRange(vs, cut, n, fcfg)
	if err != nil {
		return nil, err
	}
	if len(testRecs) == 0 {
		return nil, fmt.Errorf("core: vehicle %s: no test records after day %d", vs.ID, cut)
	}

	var model ml.Regressor
	params := ml.Params{}
	switch alg {
	case BL:
		model, err = BaselineFromSeries(vs, 0, cut, fcfg)
		if err != nil {
			return nil, err
		}
	default:
		params = DefaultParams(alg)
		if cfg.GridSearch {
			grid := cfg.Grid
			if grid == nil {
				grid = CoarseGrid(alg)
			}
			xs, ys := RecordsToXY(trainRecs)
			ds, derr := ml.NewDataset(FeatureNames(cfg.Window), xs, ys)
			if derr != nil {
				return nil, derr
			}
			res, serr := ml.GridSearchCV(func(p ml.Params) ml.Regressor {
				m, berr := Build(alg, p, cfg.Seed)
				if berr != nil {
					panic(berr) // unreachable: alg validated above
				}
				return m
			}, grid, ds, cfg.CVFolds, scorerFor(eval), rnd.Split())
			if serr != nil {
				return nil, fmt.Errorf("core: vehicle %s grid search: %w", vs.ID, serr)
			}
			params = res.Best
		}
		model, err = Build(alg, params, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}

	xTrain, yTrain := RecordsToXY(trainRecs)
	if err := model.Fit(xTrain, yTrain); err != nil {
		return nil, fmt.Errorf("core: vehicle %s fitting %s: %w", vs.ID, alg, err)
	}

	xTest := make([][]float64, len(testRecs))
	for i, r := range testRecs {
		xTest[i] = r.X
	}
	preds := ml.PredictBatch(model, xTest)
	report := &ErrorReport{VehicleID: vs.ID, Model: string(alg)}
	for i, r := range testRecs {
		report.Predictions = append(report.Predictions, Prediction{
			Day:       r.Day,
			Actual:    r.Y,
			Predicted: preds[i],
		})
	}
	return &OldResult{Report: report, Params: params, TrainRecords: len(trainRecs), Model: model}, nil
}

// scorerFor builds the CV scorer the paper optimizes: mean absolute
// error restricted to targets in D̃, falling back to plain MAE when a
// validation fold contains no qualifying day.
func scorerFor(d DTilde) ml.Scorer {
	return func(yTrue, yPred []float64) (float64, error) {
		var s float64
		n := 0
		for i := range yTrue {
			if d[int(math.Round(yTrue[i]))] {
				s += math.Abs(yTrue[i] - yPred[i])
				n++
			}
		}
		if n > 0 {
			return s / float64(n), nil
		}
		return ml.MAE(yTrue, yPred)
	}
}
