package core

import (
	"math"
	"sort"
	"time"

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

// Fingerprint is the FNV-1a content hash of one prepared vehicle: its
// identity, acquisition start, allowance and the full daily utilization
// series. Every other per-vehicle series (C, L, D, the cycle
// segmentation) is a pure function of these inputs, so two vehicles
// with equal fingerprints train — and forecast — bit-identically under
// the same configuration. Incremental builds use the fingerprint to
// decide whether the previous generation's model can be carried
// forward.
func Fingerprint(vs *timeseries.VehicleSeries, start time.Time) uint64 {
	h := uint64(fnvOffset64)
	h = fnvString(h, vs.ID)
	h = fnvUint64(h, uint64(start.Unix()))
	h = fnvUint64(h, math.Float64bits(vs.Allowance))
	h = fnvUint64(h, uint64(len(vs.U)))
	for _, v := range vs.U {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// Hash fingerprints everything about a predictor configuration that
// changes what a trained model looks like. A persisted snapshot
// records it (engine.Snapshot.ConfigHash) so a reboot under a changed
// configuration — different window, candidates, seed, ... — refuses to
// reuse the old models instead of silently serving a mixed-config
// fleet: the series fingerprints alone cannot see a config change.
//
// FitWorkers is deliberately NOT hashed: it is an execution knob with
// bit-identical results for every value, so a snapshot trained with a
// different worker count must stay reusable.
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
	h = fnvUint64(h, uint64(c.Bins))
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

// donorKey folds into h exactly what cold-start training reads from one
// old vehicle: ID, allowance, first-cycle end day and the utilization of
// that first complete cycle, of which L, D and the features are pure
// functions. TrainUnified, TrainSimilarityForLive and halfCycleDay look
// at nothing else ("only usage data related to the first maintenance
// cycle", §4.4), so a day appended to a donor's tail leaves the key —
// and every model trained on the pool — unchanged.
func donorKey(h uint64, vs *timeseries.VehicleSeries) uint64 {
	end := vs.Cycles[0].End
	h = fnvString(h, vs.ID)
	h = fnvUint64(h, math.Float64bits(vs.Allowance))
	h = fnvUint64(h, uint64(end))
	for _, v := range vs.U[:end] {
		h = fnvUint64(h, math.Float64bits(v))
	}
	return h
}

// PriorGeneration carries the reusable outputs of a previous build:
// per-vehicle fingerprints, statuses and trained models, plus the key
// of the donor pool the cold-start models among them were trained
// against. internal/engine materializes one from its current Snapshot.
type PriorGeneration struct {
	// Fingerprints are the per-vehicle series content hashes at the
	// previous build.
	Fingerprints map[string]uint64
	// PoolHash is the previous build's donor-pool key: donorKey folded
	// over the old vehicles in ID order. A donor joining or leaving, a
	// changed allowance and a rewritten day inside a donor's first cycle
	// change it; a donor's growing tail never does.
	PoolHash uint64
	// Statuses are the previous per-vehicle outcomes, including failed
	// vehicles (Err != "").
	Statuses map[string]VehicleStatus
	// Models are the previous trained models; failed vehicles have no
	// entry.
	Models map[string]ml.Regressor
}

// unified returns the generation's §4.4.1 unified model, or nil when no
// vehicle was served by it. Every such vehicle holds the same model —
// after a snapshot restore, equal decoded copies — so any holder will do.
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
	ReasonOwnData     = "own_data"     // its own series is new or changed, or nothing usable was carried
	ReasonPoolChanged = "pool_changed" // its series is unchanged but the donor pool it trains on is not
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
	// Fingerprints covers every registered vehicle at this build.
	Fingerprints map[string]uint64
	// PoolHash is this build's donor-pool key (see PriorGeneration).
	PoolHash uint64
	// PoolChanged reports that a prior generation existed and was trained
	// against a different donor pool; UnifiedReused that Shared carries
	// the prior generation's unified model instead of fitting one.
	PoolChanged, UnifiedReused bool
}

// PlanTrainingWithReuse plans one build against a prior generation.
// With prior == nil every vehicle trains (a full build). Otherwise what
// a model was trained on decides what invalidates it:
//
//	old      <- its own series
//	semi-new <- its own series + the donors' first cycles
//	new      <- the donors' first cycles
//
// so a vehicle is carried forward — status and model untouched — when
// its series fingerprint matches the prior build's and, for semi-new and
// new vehicles, the donor-pool key does too. With the key unchanged the
// prior generation's unified model is carried into Shared as well: a
// dirty or newly joined new vehicle costs a forecast, not a fit.
//
// Reuse is exact by construction, not approximation: a task seed is a
// pure function of (config seed, vehicle ID), and TrainVehicle is a
// pure function of (series, category, seed, config, donors' first
// cycles), so a reused model is bit-identical to the model a full
// rebuild would train. Callers needing the escape hatch (changed config
// or seed — which a FleetPredictor cannot observe) pass prior == nil.
func (fp *FleetPredictor) PlanTrainingWithReuse(prior *PriorGeneration) (*TrainPlan, error) {
	if len(fp.vehicles) == 0 {
		return nil, errNoVehicles()
	}
	plan := &TrainPlan{
		Shared: &TrainShared{
			olds: fp.oldVehicles(),
			cfg:  fp.cfg,
			seed: deriveSeed(fp.cfg.Seed, seedDomainShared, ""),
		},
		ReusedModels: make(map[string]ml.Regressor),
		Fingerprints: make(map[string]uint64, len(fp.vehicles)),
	}

	// The pool key is folded over *every* registered old vehicle,
	// donor-only ones included: it must be a pure function of the
	// fleet-wide donors so a shard (own partition + donors) and an
	// unsharded build (everything owned) agree on it.
	ids := fp.VehicleIDs()
	categories := make(map[string]Category, len(ids))
	poolHash := uint64(fnvOffset64)
	for _, id := range ids {
		vs := fp.vehicles[id]
		cat := Categorize(vs)
		categories[id] = cat
		if !fp.donorOnly[id] {
			plan.Fingerprints[id] = Fingerprint(vs, fp.starts[id])
		}
		if cat == Old {
			poolHash = donorKey(poolHash, vs)
		}
	}
	plan.PoolHash = poolHash
	if prior != nil {
		plan.PoolChanged = prior.PoolHash != poolHash
		if !plan.PoolChanged {
			plan.Shared.unified = prior.unified()
			plan.UnifiedReused = plan.Shared.unified != nil
		}
	}

	// Only owned vehicles are planned (trained or carried forward);
	// donor-only ones exist solely for the shared context above.
	for _, id := range ids {
		if fp.donorOnly[id] {
			continue
		}
		reason := retrainReason(prior, id, plan.Fingerprints[id], categories[id], poolHash)
		if reason == "" {
			st := prior.Statuses[id]
			plan.Reused = append(plan.Reused, st)
			if st.Err == "" {
				plan.ReusedModels[id] = prior.Models[id]
			}
			continue
		}
		plan.Tasks = append(plan.Tasks, TrainTask{
			Vehicle:  fp.vehicles[id],
			Category: categories[id],
			Seed:     deriveSeed(fp.cfg.Seed, seedDomainVehicle, id),
			Reason:   reason,
		})
	}
	return plan, nil
}

// retrainReason applies the dependency rule to one vehicle: "" when its
// prior result can be carried forward unchanged, else why it cannot.
func retrainReason(prior *PriorGeneration, id string, fpHash uint64, cat Category, poolHash uint64) string {
	if prior == nil {
		return ReasonFull
	}
	st, ok := prior.Statuses[id]
	if prev, seen := prior.Fingerprints[id]; !ok || !seen || prev != fpHash || (st.Err == "" && prior.Models[id] == nil) {
		return ReasonOwnData
	}
	// A matching fingerprint implies an identical series, hence an
	// identical category; re-deriving it keeps this robust even against
	// a (vanishingly unlikely) hash collision on membership.
	if cat != Old && prior.PoolHash != poolHash {
		// A changed pool key means a retrain could pick a different donor
		// or fit a different unified model, so carrying the old model
		// forward would break the bit-identical contract.
		return ReasonPoolChanged
	}
	return ""
}
