package engine

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/obs"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// genFleet synthesizes a fleet with the telematics generator and runs
// the §3 preparation pipeline, mirroring the deployed ingestion path.
func genFleet(t testing.TB, vehicles, days int) []Vehicle {
	t.Helper()
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = vehicles
	cfg.Days = days
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Vehicle, 0, len(fleet.Vehicles))
	for _, v := range fleet.Vehicles {
		prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, cfg.Allowance)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Vehicle{Series: prep.Series, Start: prep.Start})
	}
	return out
}

// fastPredictorConfig keeps tests quick: two cheap candidates instead
// of the full four-algorithm competition.
func fastPredictorConfig() core.PredictorConfig {
	cfg := core.DefaultPredictorConfig()
	cfg.Window = 3
	cfg.Candidates = []core.Algorithm{core.LR, core.LSVR}
	cfg.ColdStartAlgorithm = core.LR
	return cfg
}

func trainAt(t *testing.T, fleet []Vehicle, workers int) *Snapshot {
	t.Helper()
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameFloat treats NaN == NaN and otherwise requires bit equality.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestParallelMatchesSequential is the determinism contract: training
// on an 8-worker pool must be bit-identical to the sequential path —
// same statuses, same winning algorithms, same forecasts.
func TestParallelMatchesSequential(t *testing.T) {
	fleet := genFleet(t, 8, 900)
	seq := trainAt(t, fleet, 1)
	par := trainAt(t, fleet, 8)

	if len(seq.Statuses) != len(fleet) || len(par.Statuses) != len(seq.Statuses) {
		t.Fatalf("status counts: seq=%d par=%d fleet=%d", len(seq.Statuses), len(par.Statuses), len(fleet))
	}
	for i, s := range seq.Statuses {
		p := par.Statuses[i]
		if s.ID != p.ID || s.Category != p.Category || s.Strategy != p.Strategy ||
			s.Algorithm != p.Algorithm || s.Donor != p.Donor || !sameFloat(s.ValidationMRE, p.ValidationMRE) {
			t.Errorf("status %d differs:\nseq %+v\npar %+v", i, s, p)
		}
	}
	if len(seq.Forecasts) != len(par.Forecasts) {
		t.Fatalf("forecast counts: seq=%d par=%d", len(seq.Forecasts), len(par.Forecasts))
	}
	for i, f := range seq.Forecasts {
		g := par.Forecasts[i]
		if f.VehicleID != g.VehicleID || f.AsOfDay != g.AsOfDay ||
			!sameFloat(f.DaysLeft, g.DaysLeft) || !f.DueDate.Equal(g.DueDate) {
			t.Errorf("forecast %d differs:\nseq %+v\npar %+v", i, f, g)
		}
	}
	for id, msg := range seq.ForecastErrors {
		if par.ForecastErrors[id] != msg {
			t.Errorf("forecast error for %s: seq %q par %q", id, msg, par.ForecastErrors[id])
		}
	}
}

// TestEngineMatchesCoreTrain pins the engine's parallel path to the
// core sequential reference (FleetPredictor.Train) as well.
func TestEngineMatchesCoreTrain(t *testing.T) {
	fleet := genFleet(t, 6, 900)
	fp, err := core.NewFleetPredictor(fastPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fleet {
		if err := fp.AddVehicle(v.Series, v.Start); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := fp.Train()
	if err != nil {
		t.Fatal(err)
	}
	snap := trainAt(t, fleet, 4)
	if len(ref) != len(snap.Statuses) {
		t.Fatalf("status counts: core=%d engine=%d", len(ref), len(snap.Statuses))
	}
	for i, s := range ref {
		p := snap.Statuses[i]
		if s.ID != p.ID || s.Algorithm != p.Algorithm || s.Strategy != p.Strategy || !sameFloat(s.ValidationMRE, p.ValidationMRE) {
			t.Errorf("status %d differs:\ncore   %+v\nengine %+v", i, s, p)
		}
	}
}

func TestRetrainSwapsSnapshot(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot() != nil {
		t.Fatal("snapshot before first retrain")
	}
	if st := eng.Status(); st.Ready {
		t.Fatal("ready before first retrain")
	}
	first, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if first.Generation != 1 || eng.Snapshot() != first {
		t.Fatalf("generation %d, snapshot swapped=%v", first.Generation, eng.Snapshot() == first)
	}
	second, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.Generation != 2 {
		t.Fatalf("second retrain: same snapshot=%v generation=%d", second == first, second.Generation)
	}
	// The old snapshot must stay fully usable after the swap.
	if len(first.Forecasts) == 0 || first.Forecasts[0].VehicleID == "" {
		t.Fatal("old snapshot degraded after swap")
	}
	st := eng.Status()
	if !st.Ready || st.Generation != 2 || st.Vehicles != len(fleet) || st.Retraining {
		t.Fatalf("status = %+v", st)
	}
}

func TestRetrainFailureKeepsServing(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Retrain(context.Background(), nil); err == nil {
		t.Fatal("empty-fleet retrain succeeded")
	}
	if eng.Snapshot() != good {
		t.Fatal("failed retrain replaced the live snapshot")
	}
	if st := eng.Status(); st.LastError == "" || st.Generation != 1 {
		t.Fatalf("status after failure = %+v", st)
	}
}

func TestRetrainContextCancel(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Retrain(ctx, fleet); err == nil {
		t.Fatal("cancelled retrain succeeded")
	}
	if eng.Snapshot() != nil {
		t.Fatal("cancelled retrain published a snapshot")
	}
}

// TestSingleFlight: while any build is in flight, the Try/Begin
// variants refuse instead of queueing a redundant one.
func TestSingleFlight(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{Predictor: fastPredictorConfig(), Workers: 2, Source: func(context.Context) ([]Vehicle, error) {
		entered <- struct{}{}
		<-release
		return fleet, nil
	}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.BeginRetrainFromSource(context.Background(), false) {
		t.Fatal("first background retrain refused")
	}
	<-entered // the build holds the engine now
	if eng.BeginRetrainFromSource(context.Background(), false) {
		t.Fatal("second background retrain started while one is in flight")
	}
	if _, err := eng.TryRetrainFromSource(context.Background(), false); err != ErrRetrainInFlight {
		t.Fatalf("TryRetrainFromSource err = %v, want ErrRetrainInFlight", err)
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for eng.Snapshot() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background retrain never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Once drained, a Try retrain succeeds again.
	if _, err := eng.TryRetrainFromSource(context.Background(), false); err != nil {
		t.Fatalf("retrain after drain: %v", err)
	}
}

// TestRefusedKicksRunOneFollowUp: kicks refused while a build holds the
// engine are not lost — when that build releases, exactly one follow-up
// build runs for all of them, re-reading the source, and the engine
// reports retraining until it is done. A refused Begin (whose caller was
// told and retries on its own) leaves nothing behind. The first fetch
// misses v01's last day, so the follow-up has a changed fleet to publish.
func TestRefusedKicksRunOneFollowUp(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	stale := append([]Vehicle(nil), fleet...)
	stale[0] = rederive(t, fleet[0], fleet[0].Series.Allowance, func(u timeseries.Series) timeseries.Series { return u[:len(u)-1] })
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var fetches atomic.Int32
	cfg := Config{Predictor: fastPredictorConfig(), Workers: 2, Source: func(context.Context) ([]Vehicle, error) {
		if fetches.Add(1) == 1 {
			entered <- struct{}{}
			<-release
			return stale, nil
		}
		return fleet, nil
	}}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.KickRetrainFromSource(context.Background()) {
		t.Fatal("kick on an idle engine refused")
	}
	<-entered // the build has fetched (stale) data and holds the engine
	for i := 0; i < 3; i++ {
		if eng.KickRetrainFromSource(context.Background()) {
			t.Fatal("kick started a second build while one is in flight")
		}
	}
	if eng.BeginRetrainFromSource(context.Background(), false) {
		t.Fatal("Begin started a second build while one is in flight")
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for eng.Status().Retraining {
		if time.Now().After(deadline) {
			t.Fatal("engine never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	// Idle means the follow-up is done too: retraining never dropped
	// between the two builds.
	if st := eng.Status(); st.Generation != 2 || fetches.Load() != 2 {
		t.Fatalf("3 refused kicks: generation %d after %d fetches, want one follow-up (2/2)", st.Generation, fetches.Load())
	}
	// Nothing is left pending: a clean build does not trigger another.
	if _, err := eng.TryRetrainFromSource(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if st := eng.Status(); st.Retraining || st.Generation != 3 {
		t.Fatalf("after a clean build: retraining=%v generation=%d, want idle at 3", st.Retraining, st.Generation)
	}
}

// waitIdle polls until the engine has no build in flight.
func waitIdle(t *testing.T, eng *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Status().Retraining {
		if time.Now().After(deadline) {
			t.Fatal("engine never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// syncBuffer is a bytes.Buffer safe for a logger on another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestUnchangedKickPublishesNothing: a kicked build on unchanged data is
// a success that publishes nothing — same generation and snapshot, no
// OnSnapshot call, the earlier failure cleared, one count on
// fleet_retrain_unchanged_total and an Info line with the kick's trace
// ID. A kick on changed data publishes, and so does every explicit
// build on unchanged data: Retrain, RetrainFromSource, Try and Begin.
func TestUnchangedKickPublishesNothing(t *testing.T) {
	fleet := mixedFleet(t)
	current := fleet
	var failNext atomic.Bool
	var spills atomic.Int32
	logs := &syncBuffer{}
	eng, err := New(Config{
		Predictor: fastPredictorConfig(),
		Workers:   2,
		Source: func(context.Context) ([]Vehicle, error) {
			if failNext.Swap(false) {
				return nil, errors.New("store offline")
			}
			return current, nil
		},
		OnSnapshot: func(*Snapshot) { spills.Add(1) },
		Logger:     slog.New(slog.NewTextHandler(logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Retrain(context.Background(), fleet)
	if err != nil {
		t.Fatal(err)
	}
	failNext.Store(true)
	if _, err := eng.TryRetrainFromSource(context.Background(), false); err == nil {
		t.Fatal("failing source built")
	}
	if eng.Status().LastError == "" {
		t.Fatal("failed build left no error")
	}

	ctx := obs.WithTrace(context.Background(), "kick-trace-1")
	if !eng.KickRetrainFromSource(ctx) {
		t.Fatal("kick on an idle engine refused")
	}
	waitIdle(t, eng)
	st := eng.Status()
	if st.Generation != 1 || eng.Snapshot() != first || spills.Load() != 1 {
		t.Fatalf("unchanged kick: generation %d, same snapshot %v, %d spills; want 1, true, 1", st.Generation, eng.Snapshot() == first, spills.Load())
	}
	if st.LastError != "" || st.LastErrorTime != "" {
		t.Fatalf("unchanged kick left the earlier error: %q at %q", st.LastError, st.LastErrorTime)
	}
	if got := eng.Metrics().unchanged.Value(); got != 1 {
		t.Fatalf("unchanged counter %d, want 1", got)
	}
	if out := logs.String(); !strings.Contains(out, "retrain unchanged") || !strings.Contains(out, "trace=kick-trace-1") {
		t.Fatalf("no unchanged-build log line with the kick's trace ID:\n%s", out)
	}

	explicit := []struct {
		name  string
		build func() error
	}{
		{"Retrain", func() error { _, err := eng.Retrain(context.Background(), fleet); return err }},
		{"RetrainFromSource", func() error { _, err := eng.RetrainFromSource(context.Background()); return err }},
		{"TryRetrainFromSource", func() error { _, err := eng.TryRetrainFromSource(context.Background(), false); return err }},
		{"BeginRetrainFromSource", func() error {
			if !eng.BeginRetrainFromSource(context.Background(), false) {
				return errors.New("refused on an idle engine")
			}
			waitIdle(t, eng)
			return nil
		}},
	}
	for i, b := range explicit {
		if err := b.build(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if got, want := eng.Status().Generation, uint64(i+2); got != want || spills.Load() != int32(want) {
			t.Fatalf("%s on unchanged data: generation %d after %d spills, want %d/%d", b.name, got, spills.Load(), want, want)
		}
	}

	current = append([]Vehicle(nil), fleet...)
	current[0] = perturb(t, fleet[0])
	if !eng.KickRetrainFromSource(context.Background()) {
		t.Fatal("kick on an idle engine refused")
	}
	waitIdle(t, eng)
	if st := eng.Status(); st.Generation != 6 || spills.Load() != 6 {
		t.Fatalf("kick on changed data: generation %d after %d spills, want 6/6", st.Generation, spills.Load())
	}
	if got := eng.Metrics().unchanged.Value(); got != 1 {
		t.Fatalf("unchanged counter %d after a changed kick, want still 1", got)
	}
}

func TestRetrainFromSource(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	calls := 0
	src := func(context.Context) ([]Vehicle, error) {
		calls++
		return fleet, nil
	}
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || eng.Snapshot() == nil {
		t.Fatalf("calls=%d snapshot=%v", calls, eng.Snapshot() != nil)
	}

	noSrc, err := New(Config{Predictor: fastPredictorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noSrc.RetrainFromSource(context.Background()); err == nil {
		t.Fatal("RetrainFromSource without a source succeeded")
	}
}

// TestCoverageLandsWithEveryBuild: with Config.Seq, a Source build
// covers the sequence read before its fetch whether it publishes or
// comes out unchanged; a failed build ends without covering; a kick
// refused meanwhile keeps a build coming until its follow-up ends; an
// explicit fleet covers nothing; without Seq nothing is ever coming.
func TestCoverageLandsWithEveryBuild(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	var seq atomic.Uint64
	var fail, hold atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2, Seq: seq.Load, Source: func(context.Context) ([]Vehicle, error) {
		if hold.CompareAndSwap(true, false) {
			entered <- struct{}{}
			<-release
		}
		if fail.Load() {
			return nil, errors.New("store offline")
		}
		return fleet, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	seq.Store(5)
	if _, err := eng.RetrainFromSource(ctx); err != nil {
		t.Fatal(err)
	}
	if !eng.Covers(5) || eng.Covers(6) || eng.Coming() {
		t.Fatalf("after a build at 5: covers 5 %v, covers 6 %v, coming %v", eng.Covers(5), eng.Covers(6), eng.Coming())
	}
	seq.Store(7)
	fail.Store(true)
	if _, err := eng.TryRetrainFromSource(ctx, false); err == nil {
		t.Fatal("failing source built")
	}
	if eng.Covers(7) || eng.Coming() {
		t.Fatal("a failed build covered its sequence or left a build coming")
	}
	fail.Store(false)

	// A held kick, a refused kick behind it, and a change after the
	// held build read 7: only the follow-up covers 8.
	hold.Store(true)
	if !eng.KickRetrainFromSource(ctx) {
		t.Fatal("kick on an idle engine refused")
	}
	<-entered
	if !eng.Coming() {
		t.Fatal("no build coming while one is held")
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	if ok, err := eng.AwaitCoverage(short, 7); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("await during a held build: %v %v, want the deadline", ok, err)
	}
	cancel()
	seq.Store(8)
	if eng.KickRetrainFromSource(ctx) {
		t.Fatal("second kick started a build while one is held")
	}
	covered := make(chan bool, 1)
	go func() {
		ok, _ := eng.AwaitCoverage(ctx, 8)
		covered <- ok
	}()
	close(release)
	if !<-covered {
		t.Fatal("the follow-up's coverage never reached the waiter")
	}
	waitIdle(t, eng)
	if st := eng.Status(); st.Generation != 1 || eng.Coming() || !eng.Covers(8) {
		t.Fatalf("after two unchanged kicks: generation %d, coming %v, covers 8 %v; want 1, false, true", st.Generation, eng.Coming(), eng.Covers(8))
	}

	if _, err := eng.Retrain(ctx, fleet); err != nil {
		t.Fatal(err)
	}
	if eng.Covers(1) {
		t.Fatal("an explicit fleet covers a store sequence")
	}
	if ok, err := eng.AwaitCoverage(ctx, 1); ok || err != nil {
		t.Fatalf("await with nothing coming: %v %v, want an immediate false", ok, err)
	}

	plain, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2, Source: func(context.Context) ([]Vehicle, error) { return fleet, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.KickRetrainFromSource(ctx) || plain.Coming() {
		t.Fatal("an engine without Seq has a build coming")
	}
	waitIdle(t, plain)
}

// TestAwaitCoverageWakesBeforeSpill: a read waiting for a build wakes
// at the covering publish, while the OnSnapshot spill still holds the
// build and Status still reports retraining.
func TestAwaitCoverageWakesBeforeSpill(t *testing.T) {
	fleet := genFleet(t, 4, 900)
	var seq atomic.Uint64
	var hold atomic.Bool
	fetching, fetch := make(chan struct{}, 1), make(chan struct{})
	spilling, spill := make(chan struct{}, 1), make(chan struct{})
	eng, err := New(Config{Predictor: fastPredictorConfig(), Workers: 2, Seq: seq.Load,
		Source: func(context.Context) ([]Vehicle, error) {
			if hold.Load() {
				fetching <- struct{}{}
				<-fetch
			}
			return fleet, nil
		},
		OnSnapshot: func(*Snapshot) {
			if hold.Load() {
				spilling <- struct{}{}
				<-spill
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.RetrainFromSource(ctx); err != nil {
		t.Fatal(err)
	}

	seq.Store(3)
	hold.Store(true)
	built := make(chan error, 1)
	go func() {
		_, err := eng.RetrainFromSource(ctx)
		built <- err
	}()
	<-fetching
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	covered := make(chan bool, 1)
	go func() {
		ok, _ := eng.AwaitCoverage(wctx, 3)
		covered <- ok
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block before the publish
	close(fetch)
	<-spilling
	if !<-covered {
		t.Fatal("the waiter did not wake at the covering publish")
	}
	if !eng.Status().Retraining {
		t.Fatal("retraining cleared before the spill finished")
	}
	close(spill)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
}
