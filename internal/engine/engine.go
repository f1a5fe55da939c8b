// Package engine is the concurrent fleet engine behind the deployed
// system: it trains the per-vehicle models of internal/core on a
// bounded worker pool, freezes each completed training run into an
// immutable Snapshot (predictor + statuses + precomputed forecasts),
// and swaps snapshots atomically so serving never blocks on — or
// observes a half-built — retrain.
//
// Determinism: training work is planned by core.PlanTraining, which
// derives each vehicle's seed from (config seed, vehicle ID) before any
// task runs. Each task is a pure function of (vehicle, donors' first
// cycles, config, seed), so executing the plan on 1 worker or N workers
// produces bit-identical models, statuses and forecasts — and a
// vehicle whose inputs are unchanged between two builds trains the same
// model both times, which is what lets incremental retrains carry
// clean vehicles forward without training them at all, and a vehicle
// whose series did not change without forecasting it either (see
// Retrain). The parallel path is a scheduling change only.
//
// Lifecycle:
//
//	eng, _ := engine.New(cfg)
//	snap, _ := eng.Retrain(ctx, fleet)   // initial build
//	eng.Snapshot()                       // lock-free read, never nil after first Retrain
//	go eng.Retrain(ctx, newFleet)        // zero-downtime refresh; old snapshot serves meanwhile
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/timeseries"
)

// Vehicle is one prepared vehicle to ingest: its derived §2 series
// (from dataprep.Prepare or the ingest store's Fleet) plus its
// acquisition start date.
//
// A series handed to the engine is never written afterwards, by the
// caller or anyone else: a snapshot keeps the series it was built from,
// and the next build carries the model key and forecast of a vehicle
// whose series pointer is unchanged without reading its days. A source
// hands a changed vehicle a new series (ingest.Store.Fleet re-derives
// it; clean vehicles keep their cached pointer).
type Vehicle struct {
	Series *timeseries.VehicleSeries
	Start  time.Time
	// DonorOnly marks a vehicle that joins the cold-start donor pool
	// but is not trained, statused or forecast by this engine. A
	// cluster shard's source marks every other shard's old vehicles
	// donor-only, so partitioning the fleet cannot change which donors
	// a semi-new or new vehicle trains against (see internal/cluster).
	DonorOnly bool
	// Seq is the Source sequence (Config.Seq) of the vehicle's latest
	// change, 0 when the source does not know it. The build after a
	// Restore reuses the restored keys and forecasts of every vehicle
	// whose Seq is at or below the restored generation's coverage
	// without reading its days.
	Seq uint64
}

// Source yields the current fleet — typically by re-reading the
// telematics store so a retrain picks up telemetry that arrived since
// the previous build.
type Source func(ctx context.Context) ([]Vehicle, error)

// Config configures the engine.
type Config struct {
	// Predictor is the core training configuration (candidates, window,
	// seed, ...).
	Predictor core.PredictorConfig
	// Workers bounds the training pool; <= 0 means GOMAXPROCS.
	Workers int
	// Source, when set, lets RetrainFromSource (and the HTTP admin
	// endpoint) re-ingest telemetry without the caller shipping the
	// fleet explicitly.
	Source Source
	// OnSnapshot, when set, is called synchronously after each new
	// snapshot is published — the persistence hook: internal/snapstore
	// spills the generation to disk here so a rebooted engine can
	// Restore it. Failures inside the callback are the callback's
	// problem; the snapshot is already live when it runs.
	OnSnapshot func(*Snapshot)
	// Seq, when set, reads the Source's change sequence (the ingest
	// store's Seq). Each build from the Source reads it before its
	// fetch, so the generation that build publishes covers every change
	// up to that point; Covers and AwaitCoverage let a read of a vehicle
	// that just changed wait for that generation instead of being
	// answered stale. nil turns coverage off: Coming is always false.
	Seq func() uint64
	// Logger receives the engine's structured retrain logs; nil uses
	// slog.Default(). Retrain log lines carry the trace ID of the
	// request that kicked them (when there is one), tying a POST
	// /admin/retrain or telemetry-triggered rebuild back to its cause.
	Logger *slog.Logger
}

// Engine owns the training pool and the current snapshot.
type Engine struct {
	cfg     Config
	workers int
	log     *slog.Logger
	metrics *TrainMetrics

	snap atomic.Pointer[Snapshot]

	// buildMu serializes snapshot builds; serving never takes it. Every
	// holder gives it up through release.
	buildMu    sync.Mutex
	generation uint64

	// stateMu guards the observability fields below, pending (the
	// context of the latest kick refused while buildMu was held, if
	// any) and landed. retraining is written under stateMu, so Status
	// pairs it with lastErr, and is atomic so Coming reads it lock-free.
	stateMu    sync.Mutex
	pending    context.Context
	retraining atomic.Bool
	lastErr    error
	lastErrAt  time.Time

	// covered is the Source sequence the live generation covers (see
	// Covers and Restore; 0 for an explicit-fleet generation). landed
	// is closed and replaced at each publish, before its OnSnapshot
	// spill, and at each release, waking every AwaitCoverage.
	covered atomic.Uint64
	landed  chan struct{}
}

// New validates the configuration and returns an engine with no
// snapshot yet; the first Retrain (or RetrainFromSource) arms it.
func New(cfg Config) (*Engine, error) {
	// Reuse the predictor's validation up front so a bad config fails at
	// boot, not mid-retrain.
	if _, err := core.NewFleetPredictor(cfg.Predictor); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Engine{cfg: cfg, workers: workers, log: logger, metrics: newTrainMetrics(), landed: make(chan struct{})}, nil
}

// Workers reports the bound of the training pool.
func (e *Engine) Workers() int { return e.workers }

// Snapshot returns the current snapshot without locking; it is nil
// until the first successful Retrain.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// ErrRetrainInFlight is returned by the Try variants when another
// build already holds the engine.
var ErrRetrainInFlight = errors.New("engine: retrain already in progress")

// Retrain builds a fresh snapshot from the given fleet and swaps it in
// on success. The previous snapshot keeps serving until the swap, so a
// retrain causes zero downtime; on failure the previous snapshot stays
// current and the error is also surfaced via Status. Builds are
// serialized: a concurrent Retrain blocks until the one in flight
// finishes.
//
// Retrains are incremental: a vehicle retrains only when something its
// model was trained on changed — its labelled days, its donor pick, or,
// for semi-new and new vehicles, the donors' first cycles (see
// core.PlanTrainingWithReuse for the rule). Everything else carries
// model and status forward, so only a report that completes a
// maintenance cycle costs a fit. A vehicle whose series did not change
// since the live snapshot also keeps its model key and forecast without
// either being recomputed, so a daily report costs one forecast, that
// of its vehicle (Snapshot.Predicted). Reuse is bit-exact; RetrainFull
// is the escape hatch that rebuilds and re-forecasts everything from
// scratch.
func (e *Engine) Retrain(ctx context.Context, fleet []Vehicle) (*Snapshot, error) {
	return e.retrain(ctx, fleet, false)
}

// RetrainFull is Retrain with reuse disabled: every vehicle trains from
// scratch regardless of the previous snapshot. By construction it
// produces the same statuses and forecasts as an incremental Retrain on
// the same fleet — it exists as the escape hatch for operators who want
// to verify exactly that, or to rebuild after anything the model keys
// cannot see.
func (e *Engine) RetrainFull(ctx context.Context, fleet []Vehicle) (*Snapshot, error) {
	return e.retrain(ctx, fleet, true)
}

func (e *Engine) retrain(ctx context.Context, fleet []Vehicle, full bool) (*Snapshot, error) {
	e.buildMu.Lock()
	defer e.release()
	// An explicit fleet covers no Source sequence.
	return e.retrainLocked(ctx, func(context.Context) ([]Vehicle, uint64, error) { return fleet, 0, nil }, modeOf(full))
}

// Coming reports whether a build is in flight or owed to a refused
// kick (Status's retraining) — one atomic load, the check a read makes
// before it looks anything else up. Always false without Config.Seq.
func (e *Engine) Coming() bool { return e.cfg.Seq != nil && e.retraining.Load() }

// Covers reports whether the live generation covers Source sequence
// seq: it was built from a fetch that began at or after seq.
func (e *Engine) Covers(seq uint64) bool { return seq <= e.covered.Load() }

// AwaitCoverage blocks until the live generation covers Source sequence
// seq (true), no build is coming (false), or ctx ends (false and ctx's
// error). It returns as soon as the covering build publishes, before
// its OnSnapshot spill; a build that fails or comes out unchanged wakes
// it at its release, and the wait goes on only while a follow-up build
// is coming.
func (e *Engine) AwaitCoverage(ctx context.Context, seq uint64) (bool, error) {
	for {
		// The channel is taken before the checks: a wake between the
		// two closes it, so none is missed.
		e.stateMu.Lock()
		landed := e.landed
		e.stateMu.Unlock()
		if e.Covers(seq) {
			return true, nil
		}
		if !e.Coming() {
			return false, nil
		}
		select {
		case <-landed:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// wakeLocked wakes every AwaitCoverage; the caller holds stateMu.
func (e *Engine) wakeLocked() {
	close(e.landed)
	e.landed = make(chan struct{})
}

// buildMode says what a build may reuse and when it publishes.
type buildMode int

const (
	// incremental carries clean vehicles forward and always publishes.
	incremental buildMode = iota
	// fromScratch reuses nothing (RetrainFull) and always publishes.
	fromScratch
	// kicked is incremental, but a result equal to the live snapshot is
	// not published (see KickRetrainFromSource).
	kicked
)

func modeOf(full bool) buildMode {
	if full {
		return fromScratch
	}
	return incremental
}

// RetrainFromSource pulls the fleet from the configured Source and
// retrains on it (incrementally; see Retrain). The fetch happens under
// the build lock, so queued retrains each re-read the source when
// their turn comes and can never publish data staler than an earlier
// generation's.
func (e *Engine) RetrainFromSource(ctx context.Context) (*Snapshot, error) {
	e.buildMu.Lock()
	defer e.release()
	return e.retrainLocked(ctx, e.sourceFetch, incremental)
}

// TryRetrainFromSource is RetrainFromSource, except that when any
// build is already in flight — no matter who started it — it fails
// fast with ErrRetrainInFlight instead of queueing a redundant one.
// full disables incremental reuse (see RetrainFull).
func (e *Engine) TryRetrainFromSource(ctx context.Context, full bool) (*Snapshot, error) {
	if !e.buildMu.TryLock() {
		return nil, ErrRetrainInFlight
	}
	defer e.release()
	return e.retrainLocked(ctx, e.sourceFetch, modeOf(full))
}

// BeginRetrainFromSource starts a detached background rebuild and
// reports whether it started; like TryRetrainFromSource it refuses
// when any build is in flight. full disables incremental reuse.
// Failures surface via Status. The build outlives ctx's cancellation
// (the triggering request returns 202 immediately) but keeps its
// values — in particular the trace ID, so the retrain's log lines name
// the request that caused it.
func (e *Engine) BeginRetrainFromSource(ctx context.Context, full bool) bool {
	return e.begin(ctx, modeOf(full))
}

// KickRetrainFromSource is BeginRetrainFromSource(ctx, false) for a
// caller nobody retries for — a telemetry door that just acknowledged
// a report. A refusal is remembered: when the build in flight releases
// the engine, exactly one follow-up incremental build runs for all the
// kicks refused meanwhile (it re-reads the source, so it covers them
// all), and Status reports retraining until that follow-up is done.
//
// A kicked build (the follow-up included) that comes out equal to the
// live snapshot — same statuses, forecasts, errors, model keys, pool and
// config hashes, and the same model pointers — is not published: the
// generation, the snapshot and its caches stay, OnSnapshot is not
// called, and the build still counts as a success. On a shard whose
// vehicles the reports did not touch, that saves a publish, a spill and
// a checkpoint per report; explicit builds always publish.
func (e *Engine) KickRetrainFromSource(ctx context.Context) bool {
	return e.begin(ctx, kicked)
}

func (e *Engine) begin(ctx context.Context, mode buildMode) bool {
	ctx = context.WithoutCancel(ctx)
	// TryLock under stateMu, where release unlocks: a refusal noted here
	// is always seen by the holder's release, never lost between its
	// check and its unlock.
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if !e.buildMu.TryLock() {
		if mode == kicked {
			e.pending = ctx
		}
		return false
	}
	// Mark the engine retraining before returning, not inside the
	// goroutine: a caller that was just told "started" must never read
	// retraining=false, and a read right after the kick's ack must see
	// the build coming, while the goroutine awaits scheduling.
	e.retraining.Store(true)
	e.goBuild(ctx, mode)
	return true
}

// goBuild runs one detached build from the source; the caller holds
// buildMu and hands it over.
func (e *Engine) goBuild(ctx context.Context, mode buildMode) {
	go func() {
		defer e.release()
		_, _ = e.retrainLocked(ctx, e.sourceFetch, mode)
	}()
}

// release ends a build: it clears retraining and gives buildMu up —
// unless a kick was refused while the lock was held: then both pass
// straight on to the follow-up build. Either way it wakes every
// AwaitCoverage, which then sees the build's coverage and whether
// another build is coming.
func (e *Engine) release() {
	e.stateMu.Lock()
	ctx := e.pending
	e.pending = nil
	e.retraining.Store(ctx != nil)
	if ctx == nil {
		e.buildMu.Unlock()
	}
	e.wakeLocked()
	e.stateMu.Unlock()
	if ctx != nil {
		e.goBuild(ctx, kicked)
	}
}

// sourceFetch pulls the fleet from the Source and returns the Source
// sequence read before the pull (0 without Config.Seq): the fleet holds
// at least every change up to it.
func (e *Engine) sourceFetch(ctx context.Context) ([]Vehicle, uint64, error) {
	if e.cfg.Source == nil {
		return nil, 0, fmt.Errorf("engine: no fleet source configured")
	}
	var seq uint64
	if e.cfg.Seq != nil {
		seq = e.cfg.Seq()
	}
	fleet, err := e.cfg.Source(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: fleet source: %w", err)
	}
	return fleet, seq, nil
}

// retrainLocked fetches, builds and publishes one generation — or, for a
// kicked build equal to the live snapshot, returns the live snapshot
// unpublished. fetch also returns the Source sequence its fleet covers.
// Callers hold buildMu and end the build with release.
func (e *Engine) retrainLocked(ctx context.Context, fetch func(context.Context) ([]Vehicle, uint64, error), mode buildMode) (*Snapshot, error) {
	e.stateMu.Lock()
	e.retraining.Store(true)
	e.stateMu.Unlock()

	tPrep := time.Now()
	fleet, seq, err := fetch(ctx)
	if err != nil {
		e.recordError(err)
		e.logRetrainError(ctx, "fetch", err)
		return nil, err
	}
	e.metrics.ObserveStage("prep", tPrep)
	snap, err := e.build(ctx, fleet, mode == fromScratch)
	if err != nil {
		e.recordError(err)
		e.logRetrainError(ctx, "build", err)
		return nil, err
	}
	if live := e.snap.Load(); mode == kicked && live != nil && snap.sameAs(live) {
		e.recordError(nil)
		// The live generation is what a build at seq produces.
		e.covered.Store(seq)
		e.metrics.unchanged.Inc()
		e.log.LogAttrs(ctx, slog.LevelInfo, "retrain unchanged; not published",
			slog.String("trace", obs.TraceID(ctx)),
			slog.Uint64("generation", live.Generation),
			slog.Int("vehicles", len(snap.Statuses)),
			slog.Int("predicted", snap.Predicted),
			slog.Float64("seconds", snap.TrainDuration.Seconds()))
		return live, nil
	}
	e.generation++
	snap.Generation = e.generation
	snap.Covered = seq
	// A successful build supersedes any earlier failure; clear it
	// *before* publishing so Status never pairs the new generation with
	// a stale error.
	e.recordError(nil)
	// Coverage never runs ahead of the live snapshot: lowered before
	// the swap, raised after it.
	if seq < e.covered.Load() {
		e.covered.Store(seq)
	}
	e.snap.Store(snap)
	e.covered.Store(seq)
	// Wake readers now, not at release: they need the generation, not
	// its spill.
	e.stateMu.Lock()
	e.wakeLocked()
	e.stateMu.Unlock()
	if e.cfg.OnSnapshot != nil {
		e.cfg.OnSnapshot(snap)
	}
	e.log.LogAttrs(ctx, slog.LevelInfo, "retrain complete",
		slog.String("trace", obs.TraceID(ctx)),
		slog.Uint64("generation", snap.Generation),
		slog.Int("vehicles", len(snap.Statuses)),
		slog.Int("reused", snap.Reused),
		slog.Int("retrained", snap.Retrained),
		slog.Int("predicted", snap.Predicted),
		slog.Bool("full", mode == fromScratch),
		slog.Bool("pool_changed", snap.PoolChanged),
		slog.Bool("unified_reused", snap.UnifiedReused),
		slog.Float64("seconds", snap.TrainDuration.Seconds()))
	return snap, nil
}

func (e *Engine) logRetrainError(ctx context.Context, stage string, err error) {
	e.log.LogAttrs(ctx, slog.LevelError, "retrain failed",
		slog.String("trace", obs.TraceID(ctx)),
		slog.String("stage", stage),
		slog.String("error", err.Error()))
}

// Restore publishes a previously persisted generation (see
// internal/snapstore) as the current one, so a rebooted engine serves
// its last build immediately instead of cold-training, and returns at
// once. The restored snapshot carries the model keys and pool key of its
// build, so the next build is incremental against it — only vehicles
// whose model key moved since the spill retrain (plus, once, every
// vehicle of a spill that predates the model keys, and the cold-start
// vehicles of one whose pool key predates the first-cycle key). Restore
// is a boot-time operation: it refuses once the engine has any snapshot.
//
// The restored generation covers the Source sequence its build covered
// (snap.Covered), provided the Source has reached it: a store whose
// sequence is below it lost history the spill had seen, and the
// generation then covers 0. From the moment the rows are published a
// read of a vehicle with no change after that sequence answers at once;
// a read of one changed since waits for the reconcile below.
//
// A restore is three stages under one hold of the build lock, with
// Status reporting retraining from the moment the rows are published
// until the last ends. The rows — statuses, forecasts, errors, keys —
// are published first: every read is served from them, and no read ever
// touches a model. models, when non-nil, then yields the generation's
// models (snap.Models is nil in that case), which may decode lazily:
// a model with a Decode method (see snapstore.Rows.LazyModels) decodes
// its body when first used. They are installed by publishing a copy of
// the snapshot that carries them; the rows readers see do not change. A
// models call that fails is logged and the models are dropped: the rows
// keep serving, and the next build retrains every vehicle, because a
// vehicle without a prior model always retrains.
//
// With reconcile set, one incremental build from the Source runs next,
// so a build that folds recovered telemetry into the restored
// generation never races the restore. It adopts the fetched series of
// every vehicle unchanged since the covered sequence (Vehicle.Seq), so
// it carries their keys, models and forecasts without hashing, decoding
// or predicting them, and it decodes, before planning, the models of
// the vehicles that did change; a model that fails to decode is dropped
// and its vehicle retrains. Last, a warm pass decodes every model still
// undecoded, so no later build decodes one; a model that fails is
// dropped by publishing a copy of the snapshot without it, and the next
// build retrains its vehicle. The returned channel yields the
// reconcile's error (nil without a reconcile) once the build lock is
// released. With a durable telemetry store the fleetserver's boot order
// is WAL replay (ingest.OpenDurable), then Restore with reconcile: the
// rows serve at once, the reconcile build closes the gap at the cost of
// the vehicles reported since the spill, and the warm pass follows. A
// crash loses nothing and never forces a cold train.
func (e *Engine) Restore(snap *Snapshot, models func() (map[string]ml.Regressor, error), reconcile bool) (<-chan error, error) {
	if snap == nil {
		return nil, fmt.Errorf("engine: Restore with a nil snapshot")
	}
	e.buildMu.Lock()
	if e.snap.Load() != nil {
		e.release()
		return nil, fmt.Errorf("engine: Restore after a snapshot is already live")
	}
	if want := e.cfg.Predictor.Hash(); snap.ConfigHash != want {
		e.release()
		// Key-based reuse cannot see a config change; serving
		// (and reusing) models trained under a different window, seed
		// or candidate set would silently mix configurations.
		return nil, fmt.Errorf("engine: snapshot was trained under a different predictor configuration (hash %x, engine %x); cold-train instead", snap.ConfigHash, want)
	}
	e.generation = snap.Generation
	cover := snap.Covered
	if e.cfg.Seq == nil || e.cfg.Seq() < cover {
		cover = 0
	}
	done := make(chan error, 1)
	if models == nil && !reconcile {
		e.snap.Store(snap)
		e.covered.Store(cover)
		e.release()
		done <- nil
		return done, nil
	}
	// Retraining before the rows are live: no reader may see a ready
	// engine that is idle while its restore is still under way, and a
	// read of a vehicle changed after cover waits for the reconcile.
	e.stateMu.Lock()
	e.retraining.Store(true)
	e.stateMu.Unlock()
	e.snap.Store(snap)
	e.covered.Store(cover)
	go func() {
		if models != nil {
			e.installModels(snap, models)
		}
		var err error
		if reconcile {
			_, err = e.retrainLocked(context.Background(), e.sourceFetch, incremental)
		}
		e.warm()
		e.release()
		done <- err
	}()
	return done, nil
}

// installModels installs a restored generation's models by publishing
// the copy of snap that carries them; a failed models call leaves snap
// live without models. The caller holds buildMu.
func (e *Engine) installModels(snap *Snapshot, models func() (map[string]ml.Regressor, error)) {
	t0 := time.Now()
	m, err := models()
	if err != nil {
		e.log.LogAttrs(context.Background(), slog.LevelWarn, "restored models undecodable; serving the restored rows, the next build retrains every vehicle",
			slog.Uint64("generation", snap.Generation),
			slog.String("error", err.Error()))
		return
	}
	e.snap.Store(snap.withModels(m))
	e.log.LogAttrs(context.Background(), slog.LevelInfo, "restored models installed",
		slog.Uint64("generation", snap.Generation),
		slog.Int("vehicles", len(m)),
		slog.Float64("seconds", time.Since(t0).Seconds()))
}

// lazyModel is a restored model that decodes its body on first use;
// Decode decodes it now, once, and returns the error every later call
// returns too.
type lazyModel interface{ Decode() error }

// decodeModels decodes the lazy models among ids' models in s,
// returning s or, if any fails, a copy without every vehicle that holds
// a failed model. The caller holds buildMu.
func (e *Engine) decodeModels(s *Snapshot, ids []string) *Snapshot {
	var failed map[ml.Regressor]error
	for _, id := range ids {
		m := s.Models[id]
		if lm, ok := m.(lazyModel); ok {
			if _, seen := failed[m]; seen {
				continue
			}
			if err := lm.Decode(); err != nil {
				if failed == nil {
					failed = make(map[ml.Regressor]error)
				}
				failed[m] = err
			}
		}
	}
	if failed == nil {
		return s
	}
	kept := make(map[string]ml.Regressor, len(s.Models))
	for id, m := range s.Models {
		if err, bad := failed[m]; bad {
			e.log.LogAttrs(context.Background(), slog.LevelWarn, "restored model undecodable; its vehicle retrains",
				slog.String("vehicle", id),
				slog.String("error", err.Error()))
			continue
		}
		kept[id] = m
	}
	return s.withModels(kept)
}

// warm ends a restore: it decodes every model of the live snapshot that
// is still undecoded and, if one fails, publishes a copy without it.
// The caller holds buildMu.
func (e *Engine) warm() {
	live := e.snap.Load()
	t0 := time.Now()
	ids := make([]string, 0, len(live.Models))
	for id, m := range live.Models {
		if _, ok := m.(lazyModel); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	if warmed := e.decodeModels(live, ids); warmed != live {
		e.snap.Store(warmed)
	}
	e.log.LogAttrs(context.Background(), slog.LevelInfo, "restored models decoded",
		slog.Uint64("generation", live.Generation),
		slog.Int("vehicles", len(ids)),
		slog.Float64("seconds", time.Since(t0).Seconds()))
}

// build trains the dirty vehicles on the worker pool, carries clean
// vehicles forward from the previous snapshot (unless full), and
// freezes the result. A single vehicle failing training does not abort
// the build: its error lands in its status (and the snapshot's
// FailedVehicles) while the rest of the fleet serves normally; only a
// fleet with zero trainable vehicles fails the build.
func (e *Engine) build(ctx context.Context, fleet []Vehicle, full bool) (*Snapshot, error) {
	if len(fleet) == 0 {
		return nil, fmt.Errorf("engine: retrain with an empty fleet")
	}
	t0 := time.Now()
	fp, err := core.NewFleetPredictor(e.cfg.Predictor)
	if err != nil {
		return nil, err
	}
	for _, v := range fleet {
		if v.DonorOnly {
			err = fp.AddDonor(v.Series, v.Start)
		} else {
			err = fp.AddVehicle(v.Series, v.Start)
		}
		if err != nil {
			return nil, err
		}
	}
	// A full build carries nothing: no model, key or forecast.
	prev := e.snap.Load()
	if full {
		prev = nil
	}
	if prev != nil && prev.series == nil {
		prev = e.reconcilePrior(prev, fleet)
	}
	var prior *core.PriorGeneration
	if prev != nil {
		prior = prev.prior()
	}
	plan, err := fp.PlanTrainingWithReuse(prior)
	if err != nil {
		return nil, err
	}
	e.metrics.ObserveStage("plan", t0)
	plan.Shared.Observe = e.metrics.observer()
	for _, task := range plan.Tasks {
		e.metrics.retrains.CounterWith(task.Reason).Inc()
	}

	tFit := time.Now()
	trained, models, err := e.runPool(ctx, plan.Tasks, plan.Shared)
	if err != nil {
		return nil, err
	}
	e.metrics.ObserveStage("fit", tFit)
	statuses := mergeStatuses(plan.Reused, trained)
	for id, m := range plan.ReusedModels {
		models[id] = m
	}
	healthy := 0
	for _, st := range statuses {
		if st.Err == "" {
			healthy++
		}
	}
	// A shard that owns no vehicles (donor-only fleet) publishes a
	// valid empty snapshot — it has nothing to serve, which is not a
	// failure. Only a fleet where every *owned* vehicle failed aborts.
	if healthy == 0 && len(statuses) > 0 {
		return nil, fmt.Errorf("engine: all %d vehicles failed training; first error: %s", len(statuses), statuses[0].Err)
	}
	if err := fp.InstallTrained(statuses, models); err != nil {
		return nil, err
	}
	tSnap := time.Now()
	snap := newSnapshot(fp, statuses, models, plan, e.cfg.Predictor.Hash(), prev)
	e.metrics.ObserveStage("snapshot", tSnap)
	snap.BuiltAt = time.Now()
	snap.TrainDuration = snap.BuiltAt.Sub(t0)
	return snap, nil
}

// reconcilePrior returns what a restored snapshot is to a build that
// plans from fleet: it adopts the series of every vehicle unchanged
// since the live coverage (see Snapshot.adopt), and decodes the models
// the build may predict or train with — those of the vehicles it did
// not adopt, and the unified model when one of those may train against
// it — dropping any that fails, so that no undecodable model is used.
func (e *Engine) reconcilePrior(restored *Snapshot, fleet []Vehicle) *Snapshot {
	prev := restored.adopt(fleet, e.covered.Load())
	var ids []string
	coldStart := false
	for _, v := range fleet {
		id := v.Series.ID
		if v.DonorOnly || prev.series[id] != nil {
			continue
		}
		ids = append(ids, id)
		coldStart = coldStart || core.Categorize(v.Series) != core.Old
	}
	if coldStart {
		for id, st := range prev.StatusByID {
			if st.Strategy == "unified" && prev.Models[id] != nil {
				ids = append(ids, id)
				break
			}
		}
	}
	return e.decodeModels(prev, ids)
}

// mergeStatuses interleaves the carried-forward and freshly trained
// statuses back into one ID-ordered slice. Both inputs are already in
// ID order (PlanTrainingWithReuse emits them that way), so this is a
// linear merge.
func mergeStatuses(reused, trained []core.VehicleStatus) []core.VehicleStatus {
	out := make([]core.VehicleStatus, 0, len(reused)+len(trained))
	i, j := 0, 0
	for i < len(reused) && j < len(trained) {
		if reused[i].ID < trained[j].ID {
			out = append(out, reused[i])
			i++
		} else {
			out = append(out, trained[j])
			j++
		}
	}
	out = append(out, reused[i:]...)
	out = append(out, trained[j:]...)
	return out
}

// runPool executes the task plan on min(Workers, len(tasks))
// goroutines. Results land in task order, so the output is independent
// of scheduling. A task error becomes a failed status for that vehicle
// instead of aborting the pool; only context cancellation aborts.
func (e *Engine) runPool(ctx context.Context, tasks []core.TrainTask, shared *core.TrainShared) ([]core.VehicleStatus, map[string]ml.Regressor, error) {
	n := len(tasks)
	statuses := make([]core.VehicleStatus, n)
	trained := make([]ml.Regressor, n)

	if err := pool.ForEach(ctx, n, e.workers, func(i int) {
		st, model, err := core.TrainVehicle(tasks[i], shared)
		if err != nil {
			st = core.VehicleStatus{
				ID:       tasks[i].Vehicle.ID,
				Category: tasks[i].Category,
				Err:      err.Error(),
			}
			model = nil
		}
		statuses[i], trained[i] = st, model
	}); err != nil {
		return nil, nil, err
	}
	models := make(map[string]ml.Regressor, n)
	for i, st := range statuses {
		if st.Err == "" {
			models[st.ID] = trained[i]
		}
	}
	return statuses, models, nil
}

// recordError sets the last build error; nil clears it.
func (e *Engine) recordError(err error) {
	e.stateMu.Lock()
	e.lastErr = err
	e.lastErrAt = time.Time{}
	if err != nil {
		e.lastErrAt = time.Now()
	}
	e.stateMu.Unlock()
}

// Status is the engine's operational state, served by /admin/status.
type Status struct {
	// Ready reports whether a snapshot is live.
	Ready bool `json:"ready"`
	// Retraining reports whether a build is in flight.
	Retraining bool `json:"retraining"`
	// Workers is the training-pool bound.
	Workers int `json:"workers"`
	// Generation, Vehicles, BuiltAt and TrainDuration describe the
	// current snapshot (zero values when not ready).
	Generation   uint64  `json:"generation"`
	Vehicles     int     `json:"vehicles"`
	BuiltAt      string  `json:"built_at,omitempty"`
	TrainSeconds float64 `json:"train_seconds"`
	// Reused and Retrained split the current snapshot's vehicles by how
	// the last build produced them (carried forward vs trained);
	// Predicted counts the vehicles it forecast rather than carried.
	// PoolChanged and UnifiedReused say whether that build saw a changed
	// donor pool and whether it carried the unified model forward.
	Reused        int  `json:"reused"`
	Retrained     int  `json:"retrained"`
	Predicted     int  `json:"predicted"`
	PoolChanged   bool `json:"pool_changed"`
	UnifiedReused bool `json:"unified_reused"`
	// FailedVehicles maps each vehicle whose training failed in the
	// current snapshot to its error.
	FailedVehicles map[string]string `json:"failed_vehicles,omitempty"`
	LastError      string            `json:"last_error,omitempty"`
	LastErrorTime  string            `json:"last_error_time,omitempty"`
}

// LastBuildFailed reports whether the engine is idle and its last build
// failed — Status's retraining:false with a last_error — without
// assembling a Status.
func (e *Engine) LastBuildFailed() bool {
	retraining, _, err := e.buildState()
	return !retraining && err != nil
}

// buildState reads retraining and the last build error as one pair.
func (e *Engine) buildState() (retraining bool, lastErrAt time.Time, lastErr error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.retraining.Load(), e.lastErrAt, e.lastErr
}

// Status reports the engine's current operational state.
func (e *Engine) Status() Status {
	st := Status{Workers: e.workers}
	if snap := e.Snapshot(); snap != nil {
		st.Ready = true
		st.Generation = snap.Generation
		st.Vehicles = len(snap.Statuses)
		st.BuiltAt = snap.BuiltAt.UTC().Format(time.RFC3339)
		st.TrainSeconds = snap.TrainDuration.Seconds()
		st.Reused = snap.Reused
		st.Retrained = snap.Retrained
		st.Predicted = snap.Predicted
		st.PoolChanged = snap.PoolChanged
		st.UnifiedReused = snap.UnifiedReused
		if len(snap.FailedVehicles) > 0 {
			st.FailedVehicles = snap.FailedVehicles
		}
	}
	retraining, at, err := e.buildState()
	st.Retraining = retraining
	if err != nil {
		st.LastError = err.Error()
		st.LastErrorTime = at.UTC().Format(time.RFC3339)
	}
	return st
}
