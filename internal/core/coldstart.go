package core

import (
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/timeseries"
)

// ColdStartConfig parameterizes the §4.4 strategies for vehicles without
// a completed maintenance cycle.
type ColdStartConfig struct {
	// Window is W for the windowed features.
	Window int
	// Normalize scales L/U by T_v.
	Normalize bool
	// RestrictTrain, when non-nil, keeps only donor-cycle training rows
	// whose target lies in the given D̃ set. Models meant to serve
	// *semi-new* vehicles (whose relevant predictions are near the
	// deadline) should restrict to the evaluation region, mirroring the
	// §4.3/Table-1 finding; models meant to serve *new* vehicles must
	// train on the whole cycle, since their predictions are far from
	// the deadline.
	RestrictTrain DTilde
	// Params overrides the algorithm hyper-parameters (nil → defaults).
	Params ml.Params
	// Seed drives model randomness.
	Seed uint64
}

// NewColdStartConfig returns paper-style defaults for serving semi-new
// vehicles: W = 6, normalized, training restricted to the last-29-day
// region of the donor cycles.
func NewColdStartConfig() ColdStartConfig {
	return ColdStartConfig{Window: 6, Normalize: true, RestrictTrain: DefaultDTilde(), Seed: 1}
}

// NewColdStartConfigForNew returns the configuration for serving brand-
// new vehicles: identical except the donors' complete first cycles are
// used, because new-phase predictions live far from the deadline.
func NewColdStartConfigForNew() ColdStartConfig {
	return ColdStartConfig{Window: 6, Normalize: true, Seed: 1}
}

// featureConfig is the training-record configuration (restricted).
func (c *ColdStartConfig) featureConfig() FeatureConfig {
	return FeatureConfig{Window: c.Window, Normalize: c.Normalize, Restrict: c.RestrictTrain}
}

// evalConfig is the evaluation-record configuration (never restricted:
// E_MRE/E_Global select their own day subsets from the full report).
func (c *ColdStartConfig) evalConfig() FeatureConfig {
	return FeatureConfig{Window: c.Window, Normalize: c.Normalize}
}

// firstCompleteCycle returns the first cycle, requiring completion.
func firstCompleteCycle(vs *timeseries.VehicleSeries) (timeseries.Cycle, error) {
	c, ok := vs.FirstCycle()
	if !ok || !c.Complete {
		return timeseries.Cycle{}, fmt.Errorf("core: vehicle %s has no complete first cycle", vs.ID)
	}
	return c, nil
}

// halfCycleDay returns the first day index (within the first cycle) at
// which cumulative usage reaches T_v/2 — the boundary between the "new"
// and "semi-new" phases of the first cycle.
func halfCycleDay(vs *timeseries.VehicleSeries) (int, error) {
	c, err := firstCompleteCycle(vs)
	if err != nil {
		return 0, err
	}
	var cum float64
	for t := c.Start; t < c.End; t++ {
		cum += vs.U[t]
		if cum >= vs.Allowance/2 {
			return t + 1, nil
		}
	}
	return 0, fmt.Errorf("core: vehicle %s never reaches half allowance inside first cycle (inconsistent data)", vs.ID)
}

// FirstCycleRecords builds the relational records of a vehicle's first
// complete cycle — the §4.4 training material ("collecting in the
// training set only usage data related to the first maintenance cycle").
func FirstCycleRecords(vs *timeseries.VehicleSeries, cfg FeatureConfig) ([]Record, error) {
	c, err := firstCompleteCycle(vs)
	if err != nil {
		return nil, err
	}
	return BuildRecordsRange(vs, c.Start, c.End, cfg)
}

// TrainUnified fits the §4.4.1 Unified model (Model_Uni): "a single
// regression model for all the semi-new vehicles by merging data
// acquired from all the training vehicles together", using only first-
// cycle data.
func TrainUnified(train []*timeseries.VehicleSeries, alg Algorithm, cfg ColdStartConfig) (ml.Regressor, error) {
	if alg == BL {
		return nil, fmt.Errorf("core: the baseline is per-vehicle; it has no unified variant")
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("core: TrainUnified with no training vehicles")
	}
	var recs []Record
	for _, vs := range train {
		r, err := FirstCycleRecords(vs, cfg.featureConfig())
		if err != nil {
			return nil, err
		}
		recs = append(recs, r...)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: no first-cycle records across %d training vehicles", len(train))
	}
	params := cfg.Params
	if params == nil {
		params = DefaultParams(alg)
	}
	model, err := Build(alg, params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	x, y := RecordsToXY(recs)
	if err := model.Fit(x, y); err != nil {
		return nil, fmt.Errorf("core: fitting unified %s on %d records: %w", alg, len(recs), err)
	}
	return model, nil
}

// Distance is a §4.4.1 donor-selection measure between two utilization
// series; lower is more similar. The paper's is timeseries.AvgDistance.
type Distance func(a, b timeseries.Series) (float64, error)

// nearestDonor is the one §4.4.1 donor scan: the candidate whose first
// half-cycle is closest to probe under dist, with that distance. A
// candidate without a half-cycle, or whose distance fails, is skipped;
// a tie goes to the first candidate in input order. nil means no
// candidate was usable.
func nearestDonor(probe timeseries.Series, cands []*timeseries.VehicleSeries, dist Distance) (*timeseries.VehicleSeries, float64) {
	return nearestHalf(probe, donorHalves(cands), dist)
}

// donorHalf is a donor candidate with its first half-cycle cut out: the
// slice the scan compares a probe against.
type donorHalf struct {
	vs   *timeseries.VehicleSeries
	half timeseries.Series
}

// donorHalves cuts each candidate's first half-cycle, in input order,
// skipping candidates without one. A plan cuts them once and scans every
// semi-new vehicle against the result.
func donorHalves(cands []*timeseries.VehicleSeries) []donorHalf {
	out := make([]donorHalf, 0, len(cands))
	for _, cand := range cands {
		if half, err := halfCycleDay(cand); err == nil {
			out = append(out, donorHalf{vs: cand, half: cand.U[:half]})
		}
	}
	return out
}

// nearestHalf is nearestDonor over prepared half-cycles.
func nearestHalf(probe timeseries.Series, cands []donorHalf, dist Distance) (*timeseries.VehicleSeries, float64) {
	var best *timeseries.VehicleSeries
	bestDist := math.Inf(1)
	for _, cand := range cands {
		d, err := dist(probe, cand.half)
		if err != nil {
			continue
		}
		if d < bestDist {
			best, bestDist = cand.vs, d
		}
	}
	return best, bestDist
}

// MostSimilarVehicle implements the offline §4.4.1 selection: compare
// the test vehicle's utilization in the first half of its first cycle
// against each candidate's same period under dist, and return the
// closest candidate.
func MostSimilarVehicle(test *timeseries.VehicleSeries, candidates []*timeseries.VehicleSeries, dist Distance) (*timeseries.VehicleSeries, float64, error) {
	half, err := halfCycleDay(test)
	if err != nil {
		return nil, 0, err
	}
	best, d := nearestDonor(test.U[:half], candidates, dist)
	if best == nil {
		return nil, 0, fmt.Errorf("core: no usable donor for %s among %d candidates", test.ID, len(candidates))
	}
	return best, d, nil
}

// TrainSimilarity fits the §4.4.1 Similarity-based model (Model_Sim):
// pick the training vehicle most similar under dist and train on its
// first cycle only. It returns the model and the chosen donor's ID.
func TrainSimilarity(test *timeseries.VehicleSeries, train []*timeseries.VehicleSeries, alg Algorithm, cfg ColdStartConfig, dist Distance) (ml.Regressor, string, error) {
	if alg == BL {
		return nil, "", fmt.Errorf("core: the baseline has no similarity variant")
	}
	donor, _, err := MostSimilarVehicle(test, train, dist)
	if err != nil {
		return nil, "", err
	}
	model, err := fitSimilarity(donor, alg, cfg)
	if err != nil {
		return nil, "", fmt.Errorf("core: fitting similarity %s on donor %s: %w", alg, donor.ID, err)
	}
	return model, donor.ID, nil
}

// EvaluateSemiNew scores a fitted cold-start model on the semi-new phase
// of a test vehicle's first cycle: the days from the half-allowance
// point to the first maintenance. The caller computes EMRE from the
// report (Table 3, left column).
func EvaluateSemiNew(model ml.Regressor, modelName string, test *timeseries.VehicleSeries, cfg ColdStartConfig) (*ErrorReport, error) {
	half, err := halfCycleDay(test)
	if err != nil {
		return nil, err
	}
	c, err := firstCompleteCycle(test)
	if err != nil {
		return nil, err
	}
	recs, err := BuildRecordsRange(test, half, c.End, cfg.evalConfig())
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: vehicle %s has no semi-new evaluation records", test.ID)
	}
	return reportFor(model, modelName, test.ID, recs), nil
}

// EvaluateSemiNewBaseline applies the §4.4.1 baseline to a semi-new
// vehicle: AVG_v is the average utilization over the first half of the
// first cycle (the only history a semi-new vehicle has), then
// D̂ = L/AVG over the semi-new phase.
func EvaluateSemiNewBaseline(test *timeseries.VehicleSeries, cfg ColdStartConfig) (*ErrorReport, error) {
	half, err := halfCycleDay(test)
	if err != nil {
		return nil, err
	}
	bl, err := BaselineFromSeries(test, 0, half, cfg.evalConfig())
	if err != nil {
		return nil, err
	}
	return EvaluateSemiNew(bl, string(BL), test, cfg)
}

// EvaluateNew scores a fitted unified model on the "new" phase of a test
// vehicle's first cycle: the days before the half-allowance point. The
// paper compares algorithms here by E_Global (Table 3, right column),
// since by the time D ∈ {1..29} the vehicle is semi-new already.
func EvaluateNew(model ml.Regressor, modelName string, test *timeseries.VehicleSeries, cfg ColdStartConfig) (*ErrorReport, error) {
	half, err := halfCycleDay(test)
	if err != nil {
		return nil, err
	}
	c, err := firstCompleteCycle(test)
	if err != nil {
		return nil, err
	}
	recs, err := BuildRecordsRange(test, c.Start, half, cfg.evalConfig())
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: vehicle %s has no new-phase evaluation records", test.ID)
	}
	return reportFor(model, modelName, test.ID, recs), nil
}

func reportFor(model ml.Regressor, modelName, vehicleID string, recs []Record) *ErrorReport {
	rep := &ErrorReport{VehicleID: vehicleID, Model: modelName}
	for _, r := range recs {
		rep.Predictions = append(rep.Predictions, Prediction{
			Day:       r.Day,
			Actual:    r.Y,
			Predicted: model.Predict(r.X),
		})
	}
	return rep
}
