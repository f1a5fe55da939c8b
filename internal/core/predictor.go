package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/ml"
	"repro/internal/timeseries"
)

// PredictorConfig configures the deployed-system facade.
type PredictorConfig struct {
	// Window is W for the windowed features.
	Window int
	// Normalize scales features by T_v.
	Normalize bool
	// Candidates are the algorithms competed per old vehicle; the one
	// minimizing validation E_MRE(D̃) wins (§4.3: "Among the trained
	// models, we select those that minimizes the mean residual error").
	Candidates []Algorithm
	// ColdStartAlgorithm is used for unified/similarity models.
	ColdStartAlgorithm Algorithm
	// ValidationFraction is the tail share of each old vehicle's history
	// held out for model selection.
	ValidationFraction float64
	// Eval is D̃ for selection (nil → {1..29}).
	Eval DTilde
	// Seed drives model randomness.
	Seed uint64
}

// DefaultPredictorConfig mirrors the paper's deployed setup: all trained
// algorithms competed, RF-style defaults, W = 6.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{
		Window:             6,
		Normalize:          true,
		Candidates:         TrainedAlgorithms(),
		ColdStartAlgorithm: XGB,
		ValidationFraction: 0.3,
		Seed:               1,
	}
}

// VehicleStatus is the per-vehicle outcome of FleetPredictor.Train.
type VehicleStatus struct {
	ID       string
	Category Category
	// Strategy is "per-vehicle", "similarity" or "unified".
	Strategy string
	// Algorithm is the winning/selected algorithm.
	Algorithm Algorithm
	// ValidationMRE is the selection score for old vehicles (NaN for
	// cold-start strategies).
	ValidationMRE float64
	// Donor is the similarity donor vehicle (similarity strategy only).
	Donor string
	// Err, when non-empty, records why this vehicle's training failed.
	// A failed vehicle carries no model and no forecast; the rest of
	// the fleet is unaffected (per-vehicle failure tolerance).
	Err string
}

// FleetPredictor is the deployed-system facade: it ingests prepared
// vehicles, categorizes them, trains the category-appropriate model
// (§4.3/§4.4), and serves next-maintenance predictions.
type FleetPredictor struct {
	cfg      PredictorConfig
	vehicles map[string]*timeseries.VehicleSeries
	starts   map[string]time.Time
	// donorOnly marks vehicles registered for the cold-start donor pool
	// only: their first cycles feed cold-start training, donor picks and
	// the pool key exactly as in an unsharded build, but they are never
	// trained, statused or forecast. A cluster shard registers the rest
	// of the fleet's old vehicles this way, which is what keeps its models
	// bit-identical to an unsharded build's (see AddDonor).
	donorOnly map[string]bool
	models    map[string]ml.Regressor
	status    map[string]VehicleStatus
	trained   bool
}

// NewFleetPredictor returns an empty predictor.
func NewFleetPredictor(cfg PredictorConfig) (*FleetPredictor, error) {
	if cfg.Window < 0 {
		return nil, fmt.Errorf("core: negative window %d", cfg.Window)
	}
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate algorithms configured")
	}
	if cfg.ValidationFraction <= 0 || cfg.ValidationFraction >= 1 {
		return nil, fmt.Errorf("core: validation fraction %.3f outside (0,1)", cfg.ValidationFraction)
	}
	if cfg.Eval == nil {
		cfg.Eval = DefaultDTilde()
	}
	return &FleetPredictor{
		cfg:       cfg,
		vehicles:  make(map[string]*timeseries.VehicleSeries),
		starts:    make(map[string]time.Time),
		donorOnly: make(map[string]bool),
		models:    make(map[string]ml.Regressor),
		status:    make(map[string]VehicleStatus),
	}, nil
}

// AddVehicle registers a vehicle's derived series and acquisition start.
func (fp *FleetPredictor) AddVehicle(vs *timeseries.VehicleSeries, start time.Time) error {
	return fp.add(vs, start, false)
}

// AddDonor registers a vehicle for the cold-start donor pool only: it
// joins the donor pool and its key exactly as a trained vehicle would,
// but is never planned, trained or forecast. A cluster shard registers
// its own partition with AddVehicle and every other shard's old
// vehicles with AddDonor, so a semi-new or new vehicle trains against
// the same fleet-wide donor pool — hence the same model, bit for bit —
// no matter how the fleet is partitioned.
func (fp *FleetPredictor) AddDonor(vs *timeseries.VehicleSeries, start time.Time) error {
	return fp.add(vs, start, true)
}

func (fp *FleetPredictor) add(vs *timeseries.VehicleSeries, start time.Time, donorOnly bool) error {
	if vs == nil || vs.ID == "" {
		return fmt.Errorf("core: AddVehicle with nil or unidentified series")
	}
	if _, dup := fp.vehicles[vs.ID]; dup {
		return fmt.Errorf("core: vehicle %s already registered", vs.ID)
	}
	fp.vehicles[vs.ID] = vs
	fp.starts[vs.ID] = start
	if donorOnly {
		fp.donorOnly[vs.ID] = true
	}
	fp.trained = false
	return nil
}

// VehicleIDs lists registered vehicles, sorted, including donor-only
// ones (the donor pool and its hash are derived from this order).
func (fp *FleetPredictor) VehicleIDs() []string {
	ids := make([]string, 0, len(fp.vehicles))
	for id := range fp.vehicles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// OwnedVehicleIDs lists the vehicles this predictor trains and serves —
// every registered vehicle that is not donor-only — sorted.
func (fp *FleetPredictor) OwnedVehicleIDs() []string {
	ids := make([]string, 0, len(fp.vehicles))
	for id := range fp.vehicles {
		if !fp.donorOnly[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Registered returns every registered vehicle's series and acquisition
// start, donor-only ones included. The maps are the predictor's own:
// callers must not write them.
func (fp *FleetPredictor) Registered() (map[string]*timeseries.VehicleSeries, map[string]time.Time) {
	return fp.vehicles, fp.starts
}

// ownedCount counts non-donor vehicles.
func (fp *FleetPredictor) ownedCount() int {
	return len(fp.vehicles) - len(fp.donorOnly)
}

// TrainTask is one vehicle's unit of training work. Tasks are produced
// by PlanTraining and consumed by TrainVehicle; because each task
// carries its own pre-split seed, tasks may be executed in any order —
// or concurrently — and still reproduce the sequential result bit for
// bit.
type TrainTask struct {
	Vehicle  *timeseries.VehicleSeries
	Category Category
	// Donor is the similarity donor the plan picked for a semi-new
	// vehicle (pickDonor); nil means it is served by the unified model.
	Donor *timeseries.VehicleSeries
	// Seed is this vehicle's private rng split, derived from the
	// predictor seed and the vehicle ID.
	Seed uint64
	// Reason says why the vehicle trains this build (Reason* constants).
	Reason string
}

// StageObserver receives per-stage training timings: stage is "search"
// (one candidate's evaluation in the §4.3 competition) or "fit" (the
// winner's full-history refit, a similarity-donor fit, or the one
// unified-model fit), alg is the algorithm the time was spent in.
// Observers are called from whatever goroutine runs the task, so they
// must be safe for concurrent use and cheap — the obs histograms are
// both. A nil observer costs one branch. The observer has no effect on
// trained models.
type StageObserver func(stage string, alg Algorithm, seconds float64)

// observe records the time since t0 when an observer is installed.
func (o StageObserver) observe(stage string, alg Algorithm, t0 time.Time) {
	if o != nil {
		o(stage, alg, time.Since(t0).Seconds())
	}
}

// TrainShared is the read-only context shared by every training task of
// one build: the old-vehicle donor pool and the build's single unified
// model (§4.4.1 trains *one* Model_Uni on all old vehicles and serves
// every new vehicle with it). The unified model is trained lazily, at
// most once even under concurrent tasks, with its own seed split — so
// sharing costs nothing in determinism and saves O(olds) training per
// additional new vehicle. It reads only the donors' first cycles, so an
// incremental plan whose pool key matches the prior generation's hands
// that generation's unified model over and nothing is fitted at all.
type TrainShared struct {
	olds []*timeseries.VehicleSeries
	cfg  PredictorConfig
	seed uint64

	// Observe, when non-nil, receives per-stage timings from every task
	// trained against this context. Set it between planning and
	// execution; it never influences what gets trained.
	Observe StageObserver

	once    sync.Once
	unified ml.Regressor
	err     error
}

// Unified returns the build's unified cold-start model, training it on
// first use.
func (sh *TrainShared) Unified() (ml.Regressor, error) {
	sh.once.Do(func() {
		if sh.unified != nil {
			return // carried over from the prior generation by the plan
		}
		if len(sh.olds) == 0 {
			sh.err = fmt.Errorf("no old vehicles available to train a unified model")
			return
		}
		t0 := time.Now()
		cs := ColdStartConfig{Window: sh.cfg.Window, Normalize: sh.cfg.Normalize, Seed: sh.seed}
		sh.unified, sh.err = TrainUnified(sh.olds, sh.cfg.ColdStartAlgorithm, cs)
		if sh.err == nil {
			sh.Observe.observe("fit", sh.cfg.ColdStartAlgorithm, t0)
		}
	})
	return sh.unified, sh.err
}

// PlanTraining returns the deterministic per-vehicle task list (ID
// order) and the shared training context. Each seed is derived from
// (cfg.Seed, vehicle ID) — not from a sequential split — so the plan,
// and therefore every downstream model, depends neither on how the
// tasks are later scheduled nor on which other vehicles are in the
// fleet. The latter is what lets incremental builds (see
// PlanTrainingWithReuse) carry unchanged vehicles' models forward
// bit-identically even as the fleet grows or shrinks.
func (fp *FleetPredictor) PlanTraining() ([]TrainTask, *TrainShared, error) {
	plan, err := fp.PlanTrainingWithReuse(nil)
	if err != nil {
		return nil, nil, err
	}
	return plan.Tasks, plan.Shared, nil
}

func errNoVehicles() error {
	return fmt.Errorf("core: Train with no vehicles registered")
}

// TrainVehicle trains one vehicle according to its category (§4.3 for
// old vehicles, §4.4 cold-start strategies otherwise). It depends only
// on the task and the shared context — which carries the predictor's
// effective config, defaults applied — and is safe to call from many
// goroutines at once.
func TrainVehicle(task TrainTask, shared *TrainShared) (VehicleStatus, ml.Regressor, error) {
	var (
		st    VehicleStatus
		model ml.Regressor
		err   error
	)
	switch task.Category {
	case Old:
		st, model, err = trainOld(task.Vehicle, shared.cfg, task.Seed, shared.Observe)
	case SemiNew:
		st, model, err = trainSemiNew(task, shared)
	case New:
		st, model, err = trainNew(shared)
	}
	if err != nil {
		return VehicleStatus{}, nil, fmt.Errorf("core: training vehicle %s (%s): %w", task.Vehicle.ID, task.Category, err)
	}
	st.ID = task.Vehicle.ID
	st.Category = task.Category
	return st, model, nil
}

// InstallTrained installs externally computed training results (the
// engine's worker-pool path) and marks the predictor trained. The
// statuses must cover every owned (non-donor) vehicle exactly once; a
// vehicle whose training failed (Err != "") needs no model.
func (fp *FleetPredictor) InstallTrained(statuses []VehicleStatus, models map[string]ml.Regressor) error {
	if len(statuses) != fp.ownedCount() {
		return fmt.Errorf("core: InstallTrained with %d statuses for %d vehicles", len(statuses), fp.ownedCount())
	}
	seen := make(map[string]bool, len(statuses))
	for _, st := range statuses {
		if seen[st.ID] {
			return fmt.Errorf("core: InstallTrained with duplicate status for vehicle %q", st.ID)
		}
		seen[st.ID] = true
		if _, ok := fp.vehicles[st.ID]; !ok {
			return fmt.Errorf("core: InstallTrained for unregistered vehicle %q", st.ID)
		}
		if fp.donorOnly[st.ID] {
			return fmt.Errorf("core: InstallTrained for donor-only vehicle %q", st.ID)
		}
		if st.Err != "" {
			continue
		}
		model, ok := models[st.ID]
		if !ok || model == nil {
			return fmt.Errorf("core: InstallTrained without a model for vehicle %q", st.ID)
		}
	}
	for _, st := range statuses {
		fp.status[st.ID] = st
		if st.Err == "" {
			fp.models[st.ID] = models[st.ID]
		}
	}
	fp.trained = true
	return nil
}

// Train fits one model per vehicle according to its category and returns
// the per-vehicle statuses in ID order. It is the sequential reference
// path; internal/engine runs the same task plan on a worker pool and
// produces bit-identical results.
func (fp *FleetPredictor) Train() ([]VehicleStatus, error) {
	tasks, shared, err := fp.PlanTraining()
	if err != nil {
		return nil, err
	}
	out := make([]VehicleStatus, 0, len(tasks))
	for _, task := range tasks {
		st, model, err := TrainVehicle(task, shared)
		if err != nil {
			return nil, err
		}
		fp.status[st.ID] = st
		fp.models[st.ID] = model
		out = append(out, st)
	}
	fp.trained = true
	return out, nil
}

// labelledEnd is the end day of vs's last complete maintenance cycle:
// D is known on exactly the days before it (§2), so U[0:labelledEnd) is
// all a per-vehicle model can learn from. 0 when no cycle has completed.
func labelledEnd(vs *timeseries.VehicleSeries) int {
	for i := len(vs.Cycles) - 1; i >= 0; i-- {
		if vs.Cycles[i].Complete {
			return vs.Cycles[i].End
		}
	}
	return 0
}

// trainOld competes the candidate algorithms on a 70/30 split of the
// vehicle's labelled prefix (the days up to its last maintenance) and
// refits the winner on all of it. Unlabelled tail days would only move
// the split, so the model is a pure function of the prefix — what lets
// a daily report carry it forward (modelKey).
func trainOld(vs *timeseries.VehicleSeries, pcfg PredictorConfig, seed uint64, obs StageObserver) (VehicleStatus, ml.Regressor, error) {
	vs, err := timeseries.Derive(vs.ID, vs.U[:labelledEnd(vs)], vs.Allowance)
	if err != nil {
		return VehicleStatus{}, nil, err
	}
	cfg := NewOldConfig()
	cfg.Window = pcfg.Window
	cfg.Normalize = pcfg.Normalize
	cfg.TrainFraction = 1 - pcfg.ValidationFraction
	cfg.Eval = pcfg.Eval
	cfg.Seed = seed
	// Table 1: restriction is strictly better — when there is a D̃ row to
	// train on. A single long cycle (a vehicle just past its first
	// maintenance) has all of them after the cut; compete unrestricted
	// then, as the refit below does for a degenerate restriction.
	cut := int(float64(len(vs.U)) * cfg.TrainFraction)
	for t := cfg.Window; t < cut; t++ {
		if pcfg.Eval[vs.D[t]] {
			cfg.RestrictTrain = true
			break
		}
	}

	bestScore := math.Inf(1)
	var bestAlg Algorithm
	for _, alg := range pcfg.Candidates {
		t0 := time.Now()
		res, err := EvaluateOld(vs, alg, cfg)
		if err != nil {
			return VehicleStatus{}, nil, err
		}
		obs.observe("search", alg, t0)
		score := res.Report.MRE(pcfg.Eval)
		if math.IsNaN(score) {
			score = res.Report.Global()
		}
		if score < bestScore {
			bestScore = score
			bestAlg = alg
		}
	}
	if math.IsInf(bestScore, 1) {
		return VehicleStatus{}, nil, fmt.Errorf("no candidate algorithm produced a score")
	}

	// Refit the winner on the whole prefix (restricted region).
	tFit := time.Now()
	fcfg := FeatureConfig{Window: pcfg.Window, Normalize: pcfg.Normalize, Restrict: pcfg.Eval}
	recs, err := BuildRecords(vs, fcfg)
	if err != nil {
		return VehicleStatus{}, nil, err
	}
	if len(recs) == 0 {
		// Degenerate restriction; fall back to all known-target rows.
		fcfg.Restrict = nil
		if recs, err = BuildRecords(vs, fcfg); err != nil {
			return VehicleStatus{}, nil, err
		}
	}
	model, err := Build(bestAlg, DefaultParams(bestAlg), seed)
	if err != nil {
		return VehicleStatus{}, nil, err
	}
	x, y := RecordsToXY(recs)
	if err := model.Fit(x, y); err != nil {
		return VehicleStatus{}, nil, err
	}
	obs.observe("fit", bestAlg, tFit)
	return VehicleStatus{Strategy: "per-vehicle", Algorithm: bestAlg, ValidationMRE: bestScore}, model, nil
}

func trainSemiNew(task TrainTask, shared *TrainShared) (VehicleStatus, ml.Regressor, error) {
	pcfg := shared.cfg
	cs := ColdStartConfig{Window: pcfg.Window, Normalize: pcfg.Normalize, Seed: task.Seed}
	if task.Donor != nil {
		t0 := time.Now()
		model, err := fitSimilarity(task.Donor, pcfg.ColdStartAlgorithm, cs)
		if err == nil {
			shared.Observe.observe("fit", pcfg.ColdStartAlgorithm, t0)
			return VehicleStatus{Strategy: "similarity", Algorithm: pcfg.ColdStartAlgorithm, ValidationMRE: math.NaN(), Donor: task.Donor.ID}, model, nil
		}
		// Fall through to unified on similarity failure.
	}
	return trainNew(shared)
}

func trainNew(shared *TrainShared) (VehicleStatus, ml.Regressor, error) {
	model, err := shared.Unified()
	if err != nil {
		return VehicleStatus{}, nil, err
	}
	return VehicleStatus{Strategy: "unified", Algorithm: shared.cfg.ColdStartAlgorithm, ValidationMRE: math.NaN()}, model, nil
}

// pickDonor is the §4.4.1 donor selection for a *live* semi-new vehicle
// (one still inside its incomplete first cycle): the old vehicle whose
// first half-cycle is closest, by point-wise average distance, to the
// vehicle's available history. Candidates without a usable first cycle
// are skipped; nil means none was usable. A distance scan, cheap enough
// for a plan to run, which is what lets a semi-new model be keyed on
// its donor (modelKey); olds are the donors' half-cycles, which a plan
// cuts once (donorHalves).
func pickDonor(test *timeseries.VehicleSeries, olds []donorHalf) *timeseries.VehicleSeries {
	donor, _ := nearestHalf(test.U, olds, timeseries.AvgDistance)
	return donor
}

// fitSimilarity fits the Model_Sim of a live semi-new vehicle: alg on
// the picked donor's first complete cycle.
func fitSimilarity(donor *timeseries.VehicleSeries, alg Algorithm, cfg ColdStartConfig) (ml.Regressor, error) {
	recs, err := FirstCycleRecords(donor, cfg.featureConfig())
	if err != nil {
		return nil, err
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
		return nil, err
	}
	return model, nil
}

// Forecast is a next-maintenance prediction for one vehicle.
type Forecast struct {
	VehicleID string
	// AsOfDay is the last day of available history the forecast uses.
	AsOfDay int
	// DaysLeft is the predicted number of days until maintenance is due.
	DaysLeft float64
	// DueDate is the calendar date the prediction maps to.
	DueDate time.Time
	// Category and Strategy echo how the vehicle was modeled.
	Category Category
	Strategy string
}

// Predict forecasts the next maintenance for one vehicle from the end of
// its registered history.
func (fp *FleetPredictor) Predict(vehicleID string) (Forecast, error) {
	if !fp.trained {
		return Forecast{}, fmt.Errorf("core: Predict before Train")
	}
	vs, ok := fp.vehicles[vehicleID]
	if !ok {
		return Forecast{}, fmt.Errorf("core: unknown vehicle %q", vehicleID)
	}
	if fp.donorOnly[vehicleID] {
		return Forecast{}, fmt.Errorf("core: vehicle %s is donor-only (owned by another shard)", vehicleID)
	}
	if st := fp.status[vehicleID]; st.Err != "" {
		return Forecast{}, fmt.Errorf("core: vehicle %s failed training: %s", vehicleID, st.Err)
	}
	model := fp.models[vehicleID]
	if model == nil {
		return Forecast{}, fmt.Errorf("core: vehicle %s has no trained model", vehicleID)
	}
	t := len(vs.U) - 1
	if t < fp.cfg.Window {
		return Forecast{}, fmt.Errorf("core: vehicle %s has %d days of history, need > window %d", vehicleID, t+1, fp.cfg.Window)
	}
	scale := 1.0
	if fp.cfg.Normalize {
		scale = vs.Allowance
	}
	x := make([]float64, fp.cfg.Window+1)
	// L at the *end* of day t (usage through t consumed) so the forecast
	// starts from tomorrow.
	lEnd := vs.L[t] - vs.U[t]
	if lEnd < 0 {
		lEnd = 0
	}
	x[0] = lEnd / scale
	for k := 1; k <= fp.cfg.Window; k++ {
		x[k] = vs.U[t+1-k] / scale
	}
	days := model.Predict(x)
	if days < 0 {
		days = 0
	}
	st := fp.status[vehicleID]
	start := fp.starts[vehicleID]
	return Forecast{
		VehicleID: vehicleID,
		AsOfDay:   t,
		DaysLeft:  days,
		DueDate:   start.AddDate(0, 0, t+int(math.Round(days))),
		Category:  st.Category,
		Strategy:  st.Strategy,
	}, nil
}

// PredictAll forecasts every owned vehicle, in ID order.
func (fp *FleetPredictor) PredictAll() ([]Forecast, error) {
	out := make([]Forecast, 0, fp.ownedCount())
	for _, id := range fp.OwnedVehicleIDs() {
		f, err := fp.Predict(id)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
