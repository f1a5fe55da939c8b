package core

import (
	"math"
	"sort"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// FNV-1a constants (64-bit). The repo hashes series content with FNV-1a
// because it is fast, dependency-free and stable across platforms —
// exactly what a cross-generation reuse key needs.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Hash fingerprints everything about a predictor configuration that
// changes what a trained model looks like. A persisted snapshot
// records it (engine.Snapshot.ConfigHash) so a reboot under a changed
// configuration — different window, candidates, seed, ... — refuses to
// reuse the old models instead of silently serving a mixed-config
// fleet: the model and pool keys alone cannot see a config change.
func (c PredictorConfig) Hash() uint64 {
	h := uint64(fnvOffset64)
	h = fnvUint64(h, uint64(c.Window))
	if c.Normalize {
		h = fnvByte(h, 1)
	} else {
		h = fnvByte(h, 0)
	}
	h = fnvUint64(h, uint64(len(c.Candidates)))
	for _, alg := range c.Candidates {
		h = fnvString(h, string(alg))
	}
	h = fnvString(h, string(c.ColdStartAlgorithm))
	h = fnvUint64(h, math.Float64bits(c.ValidationFraction))
	h = fnvUint64(h, c.Seed)
	// A since-removed histogram-resolution field, 0 in every deployed
	// config, was folded here; folding its 0 keeps persisted snapshots'
	// ConfigHash valid.
	h = fnvUint64(h, 0)
	// Normalize the evaluation set the same way NewFleetPredictor does
	// (nil means the default D̃), then fold it in sorted order so two
	// equal sets hash equally.
	eval := c.Eval
	if eval == nil {
		eval = DefaultDTilde()
	}
	days := make([]int, 0, len(eval))
	for d, ok := range eval {
		if ok {
			days = append(days, d)
		}
	}
	sort.Ints(days)
	h = fnvUint64(h, uint64(len(days)))
	for _, d := range days {
		h = fnvUint64(h, uint64(d))
	}
	return h
}

// Seed-derivation domains. Tagging the domain byte first makes a
// vehicle seed and the shared unified-model seed collide-proof even if
// a vehicle were named like the reserved shared key.
const (
	seedDomainVehicle = 'V'
	seedDomainShared  = 'U'
)

// deriveSeed maps (root seed, domain, id) to a task seed through FNV-1a
// and one SplitMix/xoshiro expansion for avalanche. Unlike a sequential
// rng split, the result does not depend on which other vehicles are in
// the fleet — the property that makes incremental reuse sound: a
// vehicle's seed (and therefore its model) is unchanged when neighbours
// join or leave the fleet.
func deriveSeed(root uint64, domain byte, id string) uint64 {
	h := uint64(fnvOffset64)
	h = fnvByte(h, domain)
	h = fnvUint64(h, root)
	h = fnvString(h, id)
	return rng.New(h).Uint64()
}

// prefixKey folds into h what a model trained on days [0, end) of vs
// reads: ID, allowance, end and U[0:end). C, L, D and every feature on
// those days are pure functions of these (Derive on the prefix
// reproduces them), so a day appended after end never moves the key.
func prefixKey(h uint64, vs *timeseries.VehicleSeries, end int) uint64 {
	h = fnvString(h, vs.ID)
	h = fnvUint64(h, math.Float64bits(vs.Allowance))
	h = fnvUint64(h, uint64(end))
	for _, v := range vs.U[:end] {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// modelKey hashes exactly what a vehicle's own model reads, one rule per
// category:
//
//	old      <- ID, allowance and the labelled prefix U[0:labelledEnd)
//	semi-new <- ID and the donor pickDonor chose
//	new      <- ID
//
// Semi-new and new models also read the donors' first cycles; the pool
// key covers those. The category leads the hash, so a vehicle that
// changes category never matches its prior key.
func modelKey(vs *timeseries.VehicleSeries, cat Category, donor *timeseries.VehicleSeries) uint64 {
	h := fnvByte(fnvOffset64, byte(cat))
	switch cat {
	case Old:
		return prefixKey(h, vs, labelledEnd(vs))
	case SemiNew:
		donorID := ""
		if donor != nil {
			donorID = donor.ID
		}
		return fnvString(fnvString(h, vs.ID), donorID)
	default:
		return fnvString(h, vs.ID)
	}
}

// PriorGeneration carries the reusable outputs of a previous build:
// per-vehicle model keys, statuses and trained models, plus the key of
// the donor pool the cold-start models among them were trained against.
// internal/engine materializes one from its current Snapshot.
type PriorGeneration struct {
	// ModelKeys are the per-vehicle model keys (see modelKey) at the
	// previous build.
	ModelKeys map[string]uint64
	// PoolHash is the previous build's donor-pool key: each old
	// vehicle's first cycle (prefixKey up to Cycles[0].End) folded in ID
	// order. A donor joining or leaving, a changed allowance and a
	// rewritten day inside a donor's first cycle change it; a donor's
	// later cycles and growing tail never do.
	PoolHash uint64
	// Statuses are the previous per-vehicle outcomes, including failed
	// vehicles (Err != "").
	Statuses map[string]VehicleStatus
	// Models are the previous trained models; failed vehicles have no
	// entry.
	Models map[string]ml.Regressor
	// Series are the series the previous build planned from — every
	// registered vehicle, donor-only ones included — and Olds counts the
	// old vehicles among them. A series is never written once registered,
	// so a vehicle whose series pointer is unchanged reads exactly what
	// it read then, and the plan carries its key instead of hashing its
	// days (see carriedKey). nil Series (a restored generation) carries
	// nothing: every key is hashed afresh.
	Series map[string]*timeseries.VehicleSeries
	Olds   int
}

// unified returns the generation's §4.4.1 unified model, or nil when no
// vehicle was served by it. Every such vehicle holds the same pointer —
// a snapshot restore keeps that sharing — so any holder will do.
func (p *PriorGeneration) unified() ml.Regressor {
	for id, st := range p.Statuses {
		if st.Strategy == "unified" && p.Models[id] != nil {
			return p.Models[id]
		}
	}
	return nil
}

// Why a vehicle is in a build's task list (TrainTask.Reason).
const (
	ReasonFull        = "full"         // no prior generation: cold or forced full build
	ReasonOwnData     = "own_data"     // its model key is new or changed, or nothing usable was carried
	ReasonPoolChanged = "pool_changed" // its model key is unchanged but the donor pool it trains on is not
)

// TrainPlan is the outcome of planning one build: the vehicles that
// must (re)train, the shared training context, and the prior results
// carried forward unchanged.
type TrainPlan struct {
	// Tasks are the vehicles to train this build, in ID order.
	Tasks []TrainTask
	// Shared is the read-only context for executing Tasks.
	Shared *TrainShared
	// Reused are the carried-forward statuses, in ID order.
	Reused []VehicleStatus
	// ReusedModels are the carried-forward models (reused vehicles with
	// Err == "" only).
	ReusedModels map[string]ml.Regressor
	// ModelKeys covers every owned vehicle at this build.
	ModelKeys map[string]uint64
	// PoolHash is this build's donor-pool key (see PriorGeneration).
	PoolHash uint64
	// PoolChanged reports that a prior generation existed and was trained
	// against a different donor pool; UnifiedReused that Shared carries
	// the prior generation's unified model instead of fitting one.
	PoolChanged, UnifiedReused bool
	// Olds counts the registered old vehicles, donor-only ones included
	// (PriorGeneration.Olds for the next plan).
	Olds int
}

// PlanTrainingWithReuse plans one build against a prior generation.
// With prior == nil every vehicle trains (a full build). Otherwise what
// a model was trained on decides what invalidates it:
//
//	old      <- its labelled prefix (the days up to its last maintenance)
//	semi-new <- its own series through the donor pick + the donors' first cycles
//	new      <- the donors' first cycles
//
// so a vehicle is carried forward — status and model untouched — when
// its model key matches the prior build's and, for semi-new and new
// vehicles, the donor-pool key does too. A daily report adds a day whose
// target is unknown until the next maintenance (§2), so it moves no old
// vehicle's key: the carried model simply forecasts from the new tail.
// With the pool key unchanged the prior generation's unified model is
// carried into Shared as well: a dirty or newly joined new vehicle costs
// a forecast, not a fit.
//
// When the prior generation knows the series it planned from, the plan
// itself costs only the changed vehicles: a key, the pool key and a
// donor pick are carried whenever what they read is provably unchanged
// (carriedKey, sameFirstCycle), and a donor is picked only for a semi-new
// vehicle that trains or whose key could not be carried. Carrying is
// exact: a carried key is the key hashing would give.
//
// Reuse is exact by construction, not approximation: a task seed is a
// pure function of (config seed, vehicle ID), and TrainVehicle is a
// pure function of (model key inputs, seed, config, donors' first
// cycles), so a reused model is bit-identical to the model a full
// rebuild would train. Callers needing the escape hatch (changed config
// or seed — which a FleetPredictor cannot observe) pass prior == nil.
func (fp *FleetPredictor) PlanTrainingWithReuse(prior *PriorGeneration) (*TrainPlan, error) {
	if len(fp.vehicles) == 0 {
		return nil, errNoVehicles()
	}
	// The pool and its key span *every* registered old vehicle,
	// donor-only ones included: both must be pure functions of the
	// fleet-wide donors so a shard (own partition + donors) and an
	// unsharded build (everything owned) agree on them — and on every
	// donor pick made against the pool.
	ids := fp.VehicleIDs()
	categories := make([]Category, len(ids))
	var olds []*timeseries.VehicleSeries
	var priorSeries map[string]*timeseries.VehicleSeries
	if prior != nil {
		priorSeries = prior.Series
	}
	poolCarried := priorSeries != nil
	for i, id := range ids {
		vs := fp.vehicles[id]
		categories[i] = Categorize(vs)
		if categories[i] == Old {
			olds = append(olds, vs)
			poolCarried = poolCarried && sameFirstCycle(priorSeries[id], vs)
		}
	}
	// Every old vehicle was old before with the same first cycle, and
	// there are as many: the pool is the prior one.
	poolCarried = poolCarried && len(olds) == prior.Olds
	var poolHash uint64
	if poolCarried {
		poolHash = prior.PoolHash
	} else {
		poolHash = fnvOffset64
		for _, vs := range olds {
			// What cold-start training reads from a donor: its first cycle
			// ("only usage data related to the first maintenance cycle", §4.4).
			poolHash = prefixKey(poolHash, vs, vs.Cycles[0].End)
		}
	}
	plan := &TrainPlan{
		Shared: &TrainShared{
			olds: olds,
			cfg:  fp.cfg,
			seed: deriveSeed(fp.cfg.Seed, seedDomainShared, ""),
		},
		ReusedModels: make(map[string]ml.Regressor),
		ModelKeys:    make(map[string]uint64, fp.ownedCount()),
		PoolHash:     poolHash,
		Olds:         len(olds),
	}
	if prior != nil {
		plan.PoolChanged = prior.PoolHash != poolHash
		if !plan.PoolChanged {
			plan.Shared.unified = prior.unified()
			plan.UnifiedReused = plan.Shared.unified != nil
		}
	}

	// Each donor's first half-cycle is cut once per plan, and only when
	// some vehicle needs a pick.
	var halves []donorHalf
	pick := func(vs *timeseries.VehicleSeries) *timeseries.VehicleSeries {
		if halves == nil {
			halves = donorHalves(olds)
		}
		return pickDonor(vs, halves)
	}

	// Only owned vehicles are planned (trained or carried forward);
	// donor-only ones exist solely for the shared context above.
	for i, id := range ids {
		if fp.donorOnly[id] {
			continue
		}
		vs, cat := fp.vehicles[id], categories[i]
		var donor *timeseries.VehicleSeries
		key, carried := prior.carriedKey(id, vs, cat, poolCarried)
		if !carried {
			if cat == SemiNew {
				donor = pick(vs)
			}
			key = modelKey(vs, cat, donor)
		}
		plan.ModelKeys[id] = key
		reason := retrainReason(prior, id, key, cat, poolHash)
		if reason == "" {
			st := prior.Statuses[id]
			plan.Reused = append(plan.Reused, st)
			if st.Err == "" {
				plan.ReusedModels[id] = prior.Models[id]
			}
			continue
		}
		if carried && cat == SemiNew {
			donor = pick(vs)
		}
		plan.Tasks = append(plan.Tasks, TrainTask{
			Vehicle:  vs,
			Category: cat,
			Donor:    donor,
			Seed:     deriveSeed(fp.cfg.Seed, seedDomainVehicle, id),
			Reason:   reason,
		})
	}
	return plan, nil
}

// carriedKey returns the prior build's key for vehicle id when what the
// key reads provably did not change since, without hashing:
//
//	old      <- the prior series was old with the same allowance,
//	            labelledEnd and labelled days (an unchanged series
//	            pointer skips the compare)
//	semi-new <- the same series pointer against the same pool, so the
//	            same donor pick
//
// A new vehicle's key is its ID, so there is nothing to carry.
func (p *PriorGeneration) carriedKey(id string, vs *timeseries.VehicleSeries, cat Category, poolCarried bool) (uint64, bool) {
	if p == nil || cat == New {
		return 0, false
	}
	prev := p.Series[id]
	key, ok := p.ModelKeys[id]
	if prev == nil || !ok {
		return 0, false
	}
	if prev == vs {
		return key, cat == Old || poolCarried
	}
	if cat != Old {
		return 0, false
	}
	// labelledEnd > 0 only for an old series, so equal ends mean the
	// prior series was old too.
	end := labelledEnd(vs)
	return key, labelledEnd(prev) == end && sameDays(prev, vs, end)
}

// sameFirstCycle reports whether prev, a prior build's series, was old
// with exactly the first cycle an old vs has: what the pool key reads.
func sameFirstCycle(prev, vs *timeseries.VehicleSeries) bool {
	if prev == vs {
		return true
	}
	return prev != nil && Categorize(prev) == Old &&
		prev.Cycles[0].End == vs.Cycles[0].End && sameDays(prev, vs, vs.Cycles[0].End)
}

// sameDays reports whether a and b have the same allowance and days
// [0, end), bit for bit: everything prefixKey reads but the ID.
func sameDays(a, b *timeseries.VehicleSeries, end int) bool {
	if math.Float64bits(a.Allowance) != math.Float64bits(b.Allowance) {
		return false
	}
	for t, v := range b.U[:end] {
		if math.Float64bits(a.U[t]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// retrainReason applies the dependency rule to one vehicle: "" when its
// prior result can be carried forward unchanged, else why it cannot.
func retrainReason(prior *PriorGeneration, id string, key uint64, cat Category, poolHash uint64) string {
	if prior == nil {
		return ReasonFull
	}
	st, ok := prior.Statuses[id]
	if prev, seen := prior.ModelKeys[id]; !ok || !seen || prev != key || (st.Err == "" && prior.Models[id] == nil) {
		return ReasonOwnData
	}
	// A matching key implies the same category (it leads the hash).
	if cat != Old && prior.PoolHash != poolHash {
		// A changed pool key means a retrain could fit a different
		// similarity or unified model, so carrying the old model forward
		// would break the bit-identical contract.
		return ReasonPoolChanged
	}
	return ""
}
