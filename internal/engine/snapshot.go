package engine

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/timeseries"
)

// Snapshot is one immutable, fully materialized training result. All
// fields are written before the snapshot is published and never
// mutated afterwards, so readers may use it without synchronization for
// as long as they like — even across a retrain, which only swaps the
// engine's pointer to a new snapshot.
type Snapshot struct {
	// Statuses are the per-vehicle training outcomes in ID order,
	// including vehicles whose training failed (Err != "").
	Statuses []core.VehicleStatus
	// StatusByID indexes Statuses.
	StatusByID map[string]core.VehicleStatus
	// Forecasts are the precomputed fleet forecasts in ID order,
	// excluding vehicles whose forecast failed (see ForecastErrors).
	// Hot read paths serve these without touching a model.
	Forecasts []core.Forecast
	// ForecastByID indexes Forecasts.
	ForecastByID map[string]core.Forecast
	// ForecastErrors records, per vehicle, why a forecast could not be
	// precomputed (e.g. a brand-new vehicle with less history than the
	// feature window, or a vehicle whose training failed).
	ForecastErrors map[string]string
	// FailedVehicles maps each vehicle whose training failed to its
	// error. The rest of the fleet trained and serves normally.
	FailedVehicles map[string]string
	// Models retains the trained per-vehicle models so the next
	// incremental build can carry clean vehicles forward without
	// retraining them. Reused models are shared pointers across
	// generations, so the steady-state memory cost is one live model
	// set — a swapped-out generation's exclusive models are released as
	// soon as its readers drain. Every vehicle the §4.4.1 unified model
	// serves holds the same pointer, and internal/snapstore keeps that
	// sharing across a spill and restore.
	Models map[string]ml.Regressor
	// ModelKeys are the per-vehicle model keys of this build: a hash of
	// exactly what each vehicle's model reads (core.TrainPlan). The next
	// build retrains a vehicle only when its key moves, so a report that
	// adds no label carries the model forward. A vehicle with no key
	// here retrains on the next build.
	ModelKeys map[string]uint64
	// PoolHash is this build's donor-pool key (a hash of the old
	// vehicles' first cycles); PoolChanged and UnifiedReused echo its
	// plan (core.TrainPlan).
	PoolHash                   uint64
	PoolChanged, UnifiedReused bool
	// ConfigHash fingerprints the predictor configuration this build
	// trained under (core.PredictorConfig.Hash). Restore refuses a
	// snapshot whose hash differs from the engine's — model keys
	// alone cannot see a config change, so reusing across one would
	// silently serve stale-config models.
	ConfigHash uint64
	// Reused counts the vehicles carried forward from the previous
	// generation; Retrained counts the vehicles trained (or failed)
	// this build. Reused+Retrained == len(Statuses). Predicted counts
	// the vehicles forecast this build; every other forecast (or
	// forecast error) was carried from the previous generation. A
	// snapshot file does not record it: a restored snapshot says 0.
	Reused, Retrained, Predicted int
	// Generation counts published builds, starting at 1; a kicked build
	// equal to the live snapshot publishes nothing (see
	// Engine.KickRetrainFromSource).
	Generation uint64
	// BuiltAt is when the build finished; TrainDuration how long it
	// took, from registering the fleet through the forecast
	// precompute (the plan, fit and snapshot stages; the source fetch
	// before them is the prep stage).
	BuiltAt       time.Time
	TrainDuration time.Duration

	// series and starts are what the build planned from, every
	// registered vehicle (donor-only ones included), and olds counts its
	// old vehicles: what lets the next build carry keys and forecasts
	// for the vehicles whose series did not change. A restored snapshot
	// has none, so the build after a restore hashes and forecasts every
	// vehicle.
	series map[string]*timeseries.VehicleSeries
	starts map[string]time.Time
	olds   int

	// etag is the lazily formatted generation identifier (see ETag).
	// Lazy because Generation is stamped by the engine after the build,
	// and because a restored snapshot starts with these fields zero — a
	// zero-value Once simply reformats on first use.
	etagOnce sync.Once
	etag     string
	genID    string
}

// GenerationID returns a cheap identifier that is unique per published
// snapshot: the generation counter plus the build timestamp. The
// timestamp disambiguates generations across process restarts and
// cold retrains, where bare counters could repeat.
func (s *Snapshot) GenerationID() string {
	s.etagOnce.Do(func() {
		s.genID = "g" + strconv.FormatUint(s.Generation, 10) +
			"-" + strconv.FormatUint(uint64(s.BuiltAt.UnixNano()), 16)
		s.etag = `"` + s.genID + `"`
	})
	return s.genID
}

// ETag is GenerationID quoted as a strong HTTP entity tag.
func (s *Snapshot) ETag() string {
	s.GenerationID()
	return s.etag
}

// prior packages the snapshot's reusable outputs for the next
// incremental plan.
func (s *Snapshot) prior() *core.PriorGeneration {
	return &core.PriorGeneration{
		ModelKeys: s.ModelKeys,
		PoolHash:  s.PoolHash,
		Statuses:  s.StatusByID,
		Models:    s.Models,
		Series:    s.series,
		Olds:      s.olds,
	}
}

// withModels returns a copy of s that carries models. A restored
// generation serves its rows before its models are decoded (see
// Engine.Restore); the copy replaces it once they are, so no published
// snapshot is ever mutated.
func (s *Snapshot) withModels(models map[string]ml.Regressor) *Snapshot {
	return &Snapshot{
		Statuses:       s.Statuses,
		StatusByID:     s.StatusByID,
		Forecasts:      s.Forecasts,
		ForecastByID:   s.ForecastByID,
		ForecastErrors: s.ForecastErrors,
		FailedVehicles: s.FailedVehicles,
		Models:         models,
		ModelKeys:      s.ModelKeys,
		PoolHash:       s.PoolHash,
		PoolChanged:    s.PoolChanged,
		UnifiedReused:  s.UnifiedReused,
		ConfigHash:     s.ConfigHash,
		Reused:         s.Reused,
		Retrained:      s.Retrained,
		Predicted:      s.Predicted,
		Generation:     s.Generation,
		BuiltAt:        s.BuiltAt,
		TrainDuration:  s.TrainDuration,
		series:         s.series,
		starts:         s.starts,
		olds:           s.olds,
	}
}

// sameAs reports whether s equals o in everything a reader or the next
// plan can see: statuses and forecasts field by field (floats by their
// bits, due dates by instant and location), forecast and training
// errors, model keys, pool and config hashes, and every vehicle's model
// by pointer identity. Generation, BuiltAt and the build's counters are
// not compared.
func (s *Snapshot) sameAs(o *Snapshot) bool {
	return s.PoolHash == o.PoolHash && s.ConfigHash == o.ConfigHash &&
		slices.EqualFunc(s.Statuses, o.Statuses, sameStatus) &&
		slices.EqualFunc(s.Forecasts, o.Forecasts, sameForecast) &&
		maps.Equal(s.ForecastErrors, o.ForecastErrors) &&
		maps.Equal(s.FailedVehicles, o.FailedVehicles) &&
		maps.Equal(s.ModelKeys, o.ModelKeys) &&
		maps.EqualFunc(s.Models, o.Models, func(a, b ml.Regressor) bool { return a == b })
}

func sameStatus(a, b core.VehicleStatus) bool {
	return a.ID == b.ID && a.Category == b.Category && a.Strategy == b.Strategy &&
		a.Algorithm == b.Algorithm && a.Donor == b.Donor && a.Err == b.Err &&
		math.Float64bits(a.ValidationMRE) == math.Float64bits(b.ValidationMRE)
}

func sameForecast(a, b core.Forecast) bool {
	return a.VehicleID == b.VehicleID && a.AsOfDay == b.AsOfDay &&
		math.Float64bits(a.DaysLeft) == math.Float64bits(b.DaysLeft) &&
		a.DueDate.Equal(b.DueDate) && a.DueDate.Location() == b.DueDate.Location() &&
		a.Category == b.Category && a.Strategy == b.Strategy
}

// newSnapshot freezes a trained predictor: it precomputes every
// vehicle's forecast so serving does no model math. A forecast (or
// forecast error) is carried from prev when everything Predict reads is
// unchanged — the series pointer (a registered series is never
// written), the start, the model pointer and the status — so a build
// forecasts only the vehicles that changed; prev is nil for a build
// that carries nothing.
func newSnapshot(fp *core.FleetPredictor, statuses []core.VehicleStatus, models map[string]ml.Regressor, plan *core.TrainPlan, cfgHash uint64, prev *Snapshot) *Snapshot {
	series, starts := fp.Registered()
	s := &Snapshot{
		Statuses:       statuses,
		StatusByID:     make(map[string]core.VehicleStatus, len(statuses)),
		ForecastByID:   make(map[string]core.Forecast, len(statuses)),
		ForecastErrors: make(map[string]string),
		FailedVehicles: make(map[string]string),
		Models:         models,
		ModelKeys:      plan.ModelKeys,
		PoolHash:       plan.PoolHash,
		PoolChanged:    plan.PoolChanged,
		UnifiedReused:  plan.UnifiedReused,
		ConfigHash:     cfgHash,
		Reused:         len(plan.Reused),
		Retrained:      len(plan.Tasks),
		series:         series,
		starts:         starts,
		olds:           plan.Olds,
	}
	for _, st := range statuses {
		s.StatusByID[st.ID] = st
		if st.Err != "" {
			s.FailedVehicles[st.ID] = st.Err
			s.ForecastErrors[st.ID] = "training failed: " + st.Err
			continue
		}
		if prev.holdsForecast(st, series[st.ID], starts[st.ID], models[st.ID]) {
			if f, ok := prev.ForecastByID[st.ID]; ok {
				s.Forecasts = append(s.Forecasts, f)
				s.ForecastByID[st.ID] = f
			} else {
				s.ForecastErrors[st.ID] = prev.ForecastErrors[st.ID]
			}
			continue
		}
		s.Predicted++
		f, err := fp.Predict(st.ID)
		if err != nil {
			s.ForecastErrors[st.ID] = err.Error()
			continue
		}
		s.Forecasts = append(s.Forecasts, f)
		s.ForecastByID[st.ID] = f
	}
	return s
}

// holdsForecast reports whether s (nil allowed) already holds the forecast
// a build would compute for a vehicle with status st, series vs, start
// and model: s forecast it from the same series, start and model under
// the same status.
func (s *Snapshot) holdsForecast(st core.VehicleStatus, vs *timeseries.VehicleSeries, start time.Time, model ml.Regressor) bool {
	// Starts compare with ==, instant and location: a due date carries both.
	if s == nil || s.series[st.ID] != vs || s.starts[st.ID] != start || s.Models[st.ID] != model {
		return false
	}
	prev, ok := s.StatusByID[st.ID]
	return ok && sameStatus(prev, st)
}
