package core

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/ml/linreg"
	"repro/internal/ml/svr"
)

// Algorithm enumerates the §4.2 model lineup.
type Algorithm string

// The algorithms evaluated by the paper.
const (
	// BL is the untrained constant-utilization baseline (§4.1.1).
	BL Algorithm = "BL"
	// LR is linear regression.
	LR Algorithm = "LR"
	// LSVR is linear support vector regression.
	LSVR Algorithm = "LSVR"
	// RF is the random forest regressor.
	RF Algorithm = "RF"
	// XGB is the histogram-based gradient boosting regressor.
	XGB Algorithm = "XGB"
)

// Algorithms lists the lineup in the paper's table order.
func Algorithms() []Algorithm { return []Algorithm{BL, LR, LSVR, RF, XGB} }

// TrainedAlgorithms lists the algorithms that actually learn from data
// (everything except BL).
func TrainedAlgorithms() []Algorithm { return []Algorithm{LR, LSVR, RF, XGB} }

// Build constructs a fresh regressor for the algorithm with the given
// hyper-parameters; missing parameters fall back to DefaultParams. BL
// cannot be built here because it needs the utilization series, not a
// parameter set — use BaselineFromSeries.
func Build(alg Algorithm, p ml.Params, seed uint64) (ml.Regressor, error) {
	get := func(key string, def float64) float64 {
		if v, ok := p[key]; ok {
			return v
		}
		return def
	}
	switch alg {
	case LR:
		return linreg.NewRidge(get("ridge", 0)), nil
	case LSVR:
		m := svr.New(get("epsilon", 1.0), get("C", 1.0))
		m.Seed = seed
		return m, nil
	case RF:
		return forest.New(forest.Config{
			NEstimators:    int(get("estimators", 100)),
			MaxDepth:       int(get("depth", 0)),
			MinSamplesLeaf: int(get("min_leaf", 1)),
			Seed:           seed,
		}), nil
	case XGB:
		return gbm.New(gbm.Config{
			NEstimators:     int(get("estimators", 200)),
			LearningRate:    get("lr", 0.1),
			MaxDepth:        int(get("depth", 6)),
			MinChildSamples: int(get("min_child", 5)),
			Lambda:          get("lambda", 1.0),
			Seed:            seed,
		}), nil
	case BL:
		return nil, fmt.Errorf("core: the baseline is built from the utilization series (BaselineFromSeries), not from parameters")
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
}

// DefaultParams returns fixed, well-performing parameters used when no
// grid search is requested (the repro harness default; see DESIGN.md S3).
func DefaultParams(alg Algorithm) ml.Params {
	switch alg {
	case LR:
		return ml.Params{"ridge": 0}
	case LSVR:
		return ml.Params{"epsilon": 0.5, "C": 10}
	case RF:
		return ml.Params{"estimators": 100, "depth": 20, "min_leaf": 2}
	case XGB:
		return ml.Params{"estimators": 200, "depth": 6, "lr": 0.1}
	default:
		return ml.Params{}
	}
}

// CoarseGrid is the default search space: it spans the same ranges as the
// paper's grid with fewer points, keeping full-pipeline runs fast.
func CoarseGrid(alg Algorithm) ml.Grid {
	switch alg {
	case LR:
		return ml.Grid{"ridge": {0, 1e-3, 1}}
	case LSVR:
		return ml.Grid{"epsilon": {0.5, 1.5, 2.5}, "C": {0.01, 1, 100}}
	case RF:
		return ml.Grid{"depth": {3, 10, 50}, "estimators": {10, 100, 300}}
	case XGB:
		return ml.Grid{"depth": {3, 6, 10}, "estimators": {50, 200}, "lr": {0.1}}
	default:
		return ml.Grid{}
	}
}

// FullGrid is the paper's §5 search space: "for RF and XGB we have tuned
// the maximum tree depth from 3 to 50, and the number of estimators from
// 10 to 1000. For SVR, we tested the linear kernel and varied the values
// of the parameters epsilon (from 0.5 to 2.5) and C (from 0.01 to 100)."
func FullGrid(alg Algorithm) ml.Grid {
	switch alg {
	case LR:
		return ml.Grid{"ridge": {0, 1e-4, 1e-2, 1}}
	case LSVR:
		return ml.Grid{"epsilon": {0.5, 1.0, 1.5, 2.0, 2.5}, "C": {0.01, 0.1, 1, 10, 100}}
	case RF:
		return ml.Grid{"depth": {3, 5, 10, 20, 50}, "estimators": {10, 50, 100, 300, 1000}}
	case XGB:
		return ml.Grid{"depth": {3, 5, 10, 20, 50}, "estimators": {10, 50, 100, 300, 1000}, "lr": {0.05, 0.1}}
	default:
		return ml.Grid{}
	}
}
