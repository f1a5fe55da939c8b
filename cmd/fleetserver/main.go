// Command fleetserver boots the fleet engine — unsharded, sharded
// in-process, or as one member of a multi-process cluster — and serves
// next-maintenance forecasts and workshop plans over HTTP (see
// internal/serve for the endpoints).
//
// Ingestion modes:
//
//   - CSV mode (default): the fleet CSV (as produced by fleetgen) is
//     re-read on every retrain, so appended telemetry is picked up with
//     zero serving downtime.
//   - Live mode (-ingest): a concurrent telemetry store accepts batched
//     POST /telemetry reports; the CSV (now optional) only seeds the
//     store at boot. With -retrain-dirty N, an incremental retrain
//     kicks automatically once N vehicles have changed; under -shards
//     each shard counts only the vehicles its builds read (those it
//     owns, and any other whose first maintenance cycle changed).
//
// Telemetry durability (-wal-dir, live mode): every accepted batch is
// journaled through a segmented write-ahead log before it is
// acknowledged (-fsync always|interval|never picks the sync policy),
// and a restarted process reconstructs the store by replaying the log
// — a kill -9 loses no acknowledged report. Combined with
// -snapshot-dir the boot order is:
//
//  1. WAL replay (ingest.OpenDurable), while one goroutine reads each
//     shard's snapshot file, checks its CRC and decodes its rows;
//  2. the restored rows are published (engine.Restore): /readyz and
//     every read answer from them, before any model is decoded;
//  3. the models decode on a goroutine that holds the engine's build
//     lock, with /admin/status reporting retraining:true from step 2
//     until step 4 ends. A CRC-valid file whose model table does not
//     decode is logged and its models dropped: the rows keep serving
//     and the reconcile retrains every vehicle;
//  4. under the same hold, one incremental reconcile retrain folds the
//     recovered telemetry in (retried while a -join shard's peers boot).
//
// So a crashed server comes back serving its last generation and folds
// recovered telemetry in without ever cold-training; each persisted
// generation also checkpoints the store and compacts the WAL segments
// the checkpoint covers. Without
// -snapshot-dir nothing checkpoints: the WAL is never compacted and
// every restart replays all of it (logged as a warning at boot).
//
// Cluster topologies (see internal/cluster and ARCHITECTURE.md):
//
//   - -shards N: one process, N engine shards behind a consistent-hash
//     ring and a fan-out router. Bit-identical to the unsharded engine
//     on the same data; training parallelizes per shard.
//   - -join NAME -peers LIST: this process is shard NAME of a
//     multi-process cluster; LIST ("name=url,name=url,...") fixes the
//     ring membership. The process stores, trains and serves only the
//     vehicles the ring assigns to NAME — the router partitions
//     telemetry to owners, so raw storage is ~1/N per shard — and
//     assembles its fleet-wide cold-start donor pool by pulling its
//     peers' old-vehicle series over GET /internal/donors at each
//     retrain (the donor-series exchange; live mode requires peer
//     URLs).
//   - -peers LIST without -join: a pure router. No engine runs here;
//     requests fan out to the peers and merge, and POST /telemetry
//     routes each vehicle's reports to its ring owner only.
//
// Read-your-writes: in live mode every engine (unsharded, each -shards
// engine, a -join shard) is wired to the store's change sequence, so a
// GET /vehicles/{id}/forecast of a vehicle whose latest report the live
// generation does not cover, while the build that covers it is running
// or queued, waits for that build to publish (at most 1 s, bounded by
// the request's context) and answers with its bytes. Reads of clean
// vehicles, fleet-wide routes and reads before the first generation
// never wait; during a restore, reads of stored vehicles wait for the
// reconcile build (see internal/serve).
//
// Snapshot persistence: with -snapshot-dir every published generation
// is spilled to disk (atomic rename) and restored at the next boot, so
// a restarted server answers from its last generation's rows
// immediately and retrains incrementally from the persisted model keys
// and models instead of cold-training.
//
// Telemetry protection (enforce at the fleet's front door — the
// router in a sharded deployment): -telemetry-rps/-telemetry-burst
// shed excess POST /telemetry load with 429 + Retry-After, and
// -telemetry-token requires a bearer token.
//
// Usage:
//
//	fleetserver -data fleet.csv [-addr :8080] [-w 6] [-workers 8]
//	            [-retrain-interval 1h] [-ingest] [-retrain-dirty 1]
//	            [-shards 4] [-snapshot-dir /var/lib/fleet]
//	            [-wal-dir /var/lib/fleet/wal] [-fsync always]
//	            [-telemetry-rps 50] [-telemetry-token SECRET]
//	            [-log-level info] [-log-format json] [-pprof]
//	fleetserver -join shard0 -peers shard0=http://h0:8080,shard1=http://h1:8080 ...
//	fleetserver -peers shard0=http://h0:8080,shard1=http://h1:8080 [-addr :8000]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapstore"
	"repro/internal/telematics"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// fatal logs one Error record and exits — the structured analogue of
// log.Fatal.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		data        = flag.String("data", "", "fleet CSV file (required unless -ingest or router mode)")
		addr        = flag.String("addr", ":8080", "listen address")
		window      = flag.Int("w", 6, "feature window W")
		workers     = flag.Int("workers", 0, "training pool size per engine (0 = GOMAXPROCS)")
		interval    = flag.Duration("retrain-interval", 0, "periodic retrain interval (0 disables)")
		liveIngest  = flag.Bool("ingest", false, "enable live telemetry ingestion (POST /telemetry); -data becomes seed data")
		retrainDirt = flag.Int("retrain-dirty", 0, "with -ingest: auto-retrain once this many vehicles changed (0 disables; under -shards, per shard, of the vehicles it reads)")

		shards  = flag.Int("shards", 1, "in-process engine shards behind a consistent-hash ring")
		join    = flag.String("join", "", "multi-process mode: this process's shard name (must appear in -peers)")
		peers   = flag.String("peers", "", "cluster membership as name=url[,name=url...]; with -join names the ring, without -join runs a pure router")
		snapDir = flag.String("snapshot-dir", "", "spill each generation here and restore it at boot instead of cold-training")
		walDir  = flag.String("wal-dir", "", "with -ingest: journal accepted telemetry batches here and replay them at boot (crash-safe ingest)")
		fsync   = flag.String("fsync", "always", "WAL fsync policy: always (ack = durable), interval, or never")

		telToken = flag.String("telemetry-token", "", "require 'Authorization: Bearer <token>' on POST /telemetry")
		telRPS   = flag.Float64("telemetry-rps", 0, "rate-limit POST /telemetry at this many requests/second (0 = unlimited)")
		telBurst = flag.Int("telemetry-burst", 0, "token-bucket burst for -telemetry-rps (0 = ceil(rps))")

		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error (probe-route request lines log at debug)")
		logFormat = flag.String("log-format", "json", "log output format: json (one object per line) or text")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for CPU/heap/goroutine profiling")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetserver: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)
	slog.SetDefault(logger)

	guard := serve.GuardOptions{Token: *telToken, RPS: *telRPS, Burst: *telBurst}

	// Pure router: no engine, no data — just the ring and the peers.
	if *peers != "" && *join == "" {
		runRouter(*addr, *peers, guard, logger, *pprofFlag)
		return
	}

	if *data == "" && !*liveIngest {
		fmt.Fprintln(os.Stderr, "usage: fleetserver -data fleet.csv [-addr :8080] [-workers 8] [-retrain-interval 1h] [-ingest] [-retrain-dirty 1] [-shards N] [-snapshot-dir DIR]")
		fmt.Fprintln(os.Stderr, "       fleetserver -join NAME -peers LIST ...   (cluster shard)")
		fmt.Fprintln(os.Stderr, "       fleetserver -peers LIST [-addr :8000]    (cluster router)")
		os.Exit(2)
	}
	if *retrainDirt > 0 && !*liveIngest {
		fatal("-retrain-dirty needs -ingest")
	}
	if *walDir != "" && !*liveIngest {
		fatal("-wal-dir needs -ingest")
	}
	if *walDir != "" && *snapDir == "" {
		// The checkpoint that compacts the WAL is written only after a
		// generation is spilled, so without one the journal grows for
		// good and every restart replays all of it.
		slog.Warn("-wal-dir without -snapshot-dir: the WAL is never checkpointed or compacted, so it grows without bound and every restart replays all of it", "wal_dir", *walDir)
	}
	if *shards > 1 && *join != "" {
		fatal("-shards and -join are mutually exclusive")
	}
	if *liveIngest && *retrainDirt <= 0 && *interval <= 0 {
		*retrainDirt = 1
		slog.Info("-ingest without -retrain-dirty/-retrain-interval: defaulting -retrain-dirty to 1")
	}

	cfg := core.DefaultPredictorConfig()
	cfg.Window = *window

	// Cluster shard membership (needed before seeding: a partitioned
	// shard stores only its ring-owned slice of the fleet).
	var (
		ring     *cluster.Ring
		peerURLs []string // other shards, for the donor exchange
	)
	if *join != "" {
		members := parsePeers(*peers)
		names := make([]string, 0, len(members))
		found := false
		for _, m := range members {
			names = append(names, m.name)
			if m.name == *join {
				found = true
				continue
			}
			if m.url != "" {
				peerURLs = append(peerURLs, m.url)
			}
		}
		if !found {
			fatal("-join does not appear in -peers", "join", *join, "peers", *peers)
		}
		var err error
		if ring, err = cluster.NewRingOf(0, names...); err != nil {
			fatal("building ring", "error", err)
		}
		if *liveIngest && len(peerURLs) != len(names)-1 {
			fatal("live partitioned mode needs a URL for every peer in -peers (the donor-series exchange pulls from them)")
		}
		slog.Info("cluster shard joining ring", "shard", *join, "members", len(names), "ring", strings.Join(names, ", "))
	}

	// This process's engine shards: one, or -shards N in-process.
	shardNames := []string{"default"}
	switch {
	case ring != nil:
		shardNames = []string{*join}
	case *shards > 1:
		shardNames = cluster.ShardNames(*shards)
	}

	// The snapshot files are read and checked while OpenDurable replays
	// the WAL below: neither needs the other.
	var snaps *snapstore.Store
	if *snapDir != "" {
		var err error
		if snaps, err = snapstore.New(*snapDir); err != nil {
			fatal("opening snapshot store", "dir", *snapDir, "error", err)
		}
	}
	rows := readSnapshots(snaps, shardNames)

	// Base fleet source: live store (durable with -wal-dir) or CSV
	// re-read. Boot order for a durable store: checkpoint + WAL replay
	// happen inside OpenDurable, before anything is served.
	var (
		store *ingest.Store
		base  engine.Source
	)
	if *liveIngest {
		store = openIngestStore(*walDir, *fsync)
		if *data != "" {
			if err := seedStore(store, *data, ring, *join); err != nil {
				fatal("seeding ingest store", "file", *data, "error", err)
			}
		}
		base = store.Fleet
	} else {
		base = csvSource(*data)
	}

	waitForTelemetry := waitForTelemetryAtBoot(*liveIngest, len(storeVehicles(store)), ring != nil)
	ecfg := engine.Config{Predictor: cfg, Workers: *workers, Logger: logger}
	if store != nil {
		// Every engine — unsharded, each -shards engine over the shared
		// store, a -join shard over its partition — builds from this
		// store, so its sequence is what their generations cover: a
		// forecast read of a vehicle reported since waits for the
		// covering build instead of being answered stale.
		ecfg.Seq = store.Seq
	}

	if *shards > 1 {
		runSharded(*addr, *shards, ecfg, base, store, snaps, rows, *retrainDirt, *interval, waitForTelemetry, guard, logger, *pprofFlag)
		return
	}

	// Single engine: the whole fleet, or — with -join — this shard's
	// partition of it.
	shardName := shardNames[0]
	src := base
	if ring != nil {
		if *liveIngest {
			// Partitioned store: everything local is owned; the
			// fleet-wide donor pool is pulled from the peers at each
			// retrain.
			src = cluster.DonorExchangeSource(base, peerURLs, timeseries.DefaultAllowance, nil)
		} else {
			// CSV mode keeps the full fleet on local disk; partition it.
			src = cluster.PartitionSource(base, ring, *join)
		}
	}

	ecfg.Source = src
	ecfg.Logger = logger.With("shard", shardName)
	// The encode-timing getter is late-bound: OnSnapshot only fires
	// after a retrain, by which time eng is set.
	var eng *engine.Engine
	if save := snapshotSaver(snaps, store, func(string) *engine.TrainMetrics {
		if eng == nil {
			return nil
		}
		return eng.Metrics()
	}); save != nil {
		ecfg.OnSnapshot = func(snap *engine.Snapshot) { save(shardName, snap) }
	}
	eng, err = engine.New(ecfg)
	if err != nil {
		fatal("building engine", "error", err)
	}
	reconcile := *liveIngest && len(store.Vehicles()) > 0
	reconciled, restored := restoreSnapshot(eng, rows, shardName, reconcile)

	srv, err := serve.NewWithOptions(eng, serve.Options{
		Ingest:       store,
		RetrainDirty: *retrainDirt,
		Telemetry:    guard,
		Logger:       logger.With("shard", shardName),
		Pprof:        *pprofFlag,
	})
	if err != nil {
		fatal("building server", "error", err)
	}

	// Bind before the cold training finishes: the server answers
	// /healthz and /admin/status immediately and 503s data endpoints
	// until the first snapshot lands. A restored snapshot's rows serve
	// at once while its models decode; retrains stay incremental against
	// it, so the eager cold train is skipped — a reconcile retrain
	// (incremental: everything the snapshot covers is reused without
	// training) folds in whatever the WAL replay recovered beyond the
	// snapshot.
	switch {
	case restored:
		slog.Info("serving restored generation; retrains will be incremental", "shard", shardName, "generation", eng.Snapshot().Generation)
		if reconcile {
			retries := 0
			if ring != nil {
				retries = 60 // the first donor fetch races the peers' boot
			}
			go reconcileRetrain(eng, reconciled, retries, shardName)
		}
	case waitForTelemetry:
		slog.Info("ingest store empty; waiting for POST /telemetry before the first training")
	default:
		// A partitioned shard's first donor fetch races its peers' boot:
		// retry the cold train while the cluster assembles instead of
		// wedging unready until telemetry happens to arrive.
		retries := 0
		if ring != nil && *liveIngest {
			retries = 60
		}
		go initialTrain(eng, retries, *interval <= 0 && *retrainDirt <= 0)
	}

	if *interval > 0 {
		go retrainLoop([]*engine.Engine{eng}, *interval)
		slog.Info("periodic retraining enabled", "interval", interval.String())
	}
	if *retrainDirt > 0 {
		slog.Info("dirty-vehicle retraining enabled", "threshold", *retrainDirt)
	}

	slog.Info("listening", "addr", *addr, "shard", shardName, "pprof", *pprofFlag)
	fatal("http server exited", "error", http.ListenAndServe(*addr, srv))
}

// runSharded boots the in-process cluster: N partitioned engines, one
// serve.Server each over the shared store, and the fan-out router in
// front.
func runSharded(addr string, shards int, ecfg engine.Config, base engine.Source, store *ingest.Store, snaps *snapstore.Store, rows func(string) (*snapstore.Rows, error), retrainDirty int, interval time.Duration, waitForTelemetry bool, guard serve.GuardOptions, logger *slog.Logger, pprofFlag bool) {
	// Shard engines register their training metrics here so the spill
	// hook can attribute snapshot-encode time; a spill that fires before
	// registration (a restore racing boot) just skips the observation.
	var metricsMu sync.Mutex
	metricsByShard := make(map[string]*engine.TrainMetrics)
	shardMetrics := func(shard string) *engine.TrainMetrics {
		metricsMu.Lock()
		defer metricsMu.Unlock()
		return metricsByShard[shard]
	}

	sharded, err := cluster.NewSharded(cluster.ShardedConfig{
		Engine: ecfg,
		Base:   base,
		Shards: shards,
		// All in-process shards share one store; each persisted
		// generation advances the shared checkpoint.
		OnSnapshot: snapshotSaver(snaps, store, shardMetrics),
	})
	if err != nil {
		fatal("building sharded cluster", "error", err)
	}

	backends := make([]serve.ShardBackend, 0, shards)
	var engines []*engine.Engine
	for _, sh := range sharded.Shards() {
		// Shards are trusted-internal behind the router: the guard is
		// enforced once, at the router below.
		srv, err := serve.NewWithOptions(sh.Engine, serve.Options{
			Ingest:       store,
			RetrainDirty: retrainDirty,
			Logger:       logger.With("shard", sh.Name),
		})
		if err != nil {
			fatal("building shard server", "shard", sh.Name, "error", err)
		}
		metricsMu.Lock()
		metricsByShard[sh.Name] = sh.Engine.Metrics()
		metricsMu.Unlock()
		backends = append(backends, serve.ShardBackend{Name: sh.Name, Handler: srv})
		engines = append(engines, sh.Engine)

		reconcile := store != nil && len(store.Vehicles()) > 0
		if reconciled, ok := restoreSnapshot(sh.Engine, rows, sh.Name, reconcile); ok {
			slog.Info("serving restored generation", "shard", sh.Name, "generation", sh.Engine.Snapshot().Generation)
			if reconcile {
				go reconcileRetrain(sh.Engine, reconciled, 0, sh.Name)
			}
		} else if !waitForTelemetry {
			go func(sh cluster.Shard) {
				snap, err := sh.Engine.RetrainFromSource(context.Background())
				if err != nil {
					// Same contract as the unsharded boot: without any
					// later retrain trigger nothing would ever recover a
					// failed cold train, so fail fast for the
					// orchestrator; with one, stay up serving 503s.
					if interval <= 0 && retrainDirty <= 0 {
						fatal("initial training failed", "shard", sh.Name, "error", err)
					}
					slog.Error("initial training failed; serving 503s until a retrain succeeds", "shard", sh.Name, "error", err)
					return
				}
				slog.Info("initial training complete", "shard", sh.Name, "vehicles", len(snap.Statuses), "seconds", snap.TrainDuration.Seconds())
			}(sh)
		}
	}
	router, err := serve.NewRouter(sharded.Ring(), backends, serve.RouterOptions{
		Telemetry: guard,
		// CSV-mode shards mount no ingest surface; have the router 404
		// those routes itself instead of relaying per-shard 404s.
		DisableIngest: store == nil,
		// All in-process shards wrap this one store: upsert batches
		// exactly once at the router.
		SharedIngest: store,
		Logger:       logger.With("shard", "router"),
		Pprof:        pprofFlag,
	})
	if err != nil {
		fatal("building router", "error", err)
	}
	if waitForTelemetry {
		slog.Info("ingest store empty; waiting for POST /telemetry before the first training")
	}
	if interval > 0 {
		go retrainLoop(engines, interval)
		slog.Info("periodic retraining enabled", "interval", interval.String())
	}
	slog.Info("listening", "addr", addr, "shards", shards, "pprof", pprofFlag)
	fatal("http server exited", "error", http.ListenAndServe(addr, router))
}

// runRouter boots the engine-less front door of a multi-process
// cluster.
func runRouter(addr, peers string, guard serve.GuardOptions, logger *slog.Logger, pprofFlag bool) {
	members := parsePeers(peers)
	if len(members) == 0 {
		fatal("router mode needs -peers name=url[,name=url...]", "peers", peers)
	}
	names := make([]string, 0, len(members))
	backends := make([]serve.ShardBackend, 0, len(members))
	for _, p := range members {
		if p.url == "" {
			fatal("router mode needs a URL for every peer", "peer", p.name)
		}
		names = append(names, p.name)
		backends = append(backends, serve.NewRemoteBackend(p.name, p.url, nil))
	}
	ring, err := cluster.NewRingOf(0, names...)
	if err != nil {
		fatal("building ring", "error", err)
	}
	router, err := serve.NewRouter(ring, backends, serve.RouterOptions{
		Telemetry: guard,
		Logger:    logger.With("shard", "router"),
		Pprof:     pprofFlag,
	})
	if err != nil {
		fatal("building router", "error", err)
	}
	slog.Info("routing", "shards", strings.Join(names, ", "), "addr", addr, "pprof", pprofFlag)
	fatal("http server exited", "error", http.ListenAndServe(addr, router))
}

// peer is one -peers entry.
type peer struct{ name, url string }

// parsePeers parses "name=url,name=url,..." (the url is optional for
// shard processes, which only need the names for the ring).
func parsePeers(s string) []peer {
	var out []peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, _ := strings.Cut(part, "=")
		out = append(out, peer{name: name, url: url})
	}
	return out
}

// storeVehicles lists the ingest store's vehicles, tolerating the nil
// store of CSV mode.
func storeVehicles(store *ingest.Store) []string {
	if store == nil {
		return nil
	}
	return store.Vehicles()
}

// waitForTelemetryAtBoot decides whether a live-ingest boot with an
// empty store should hold off training until the first POST /telemetry.
// A *partitioned* shard (-join) never waits, CSV seed or not: owning
// zero vehicles is a legitimate ring outcome, and the donor exchange
// makes its training fleet non-empty anyway — so it cold-trains eagerly
// and publishes a valid empty+donors snapshot instead of answering 503
// until the retrain interval (or a stray telemetry batch) rescues it.
// Only a standalone live server with nothing to train waits.
func waitForTelemetryAtBoot(liveIngest bool, storedVehicles int, partitioned bool) bool {
	return liveIngest && storedVehicles == 0 && !partitioned
}

// initialTrain runs the eager cold train, retrying up to `retries`
// times a second apart (partitioned shards race their peers' boot for
// the first donor fetch). failFast selects the fail-fast contract:
// with no later retrain trigger configured, nothing would ever recover
// a failed cold train, so exit for the orchestrator.
func initialTrain(eng *engine.Engine, retries int, failFast bool) {
	var snap *engine.Snapshot
	var err error
	for attempt := 0; ; attempt++ {
		snap, err = eng.RetrainFromSource(context.Background())
		if err == nil || attempt >= retries {
			break
		}
		if attempt == 0 {
			slog.Warn("initial training failed; retrying while the cluster assembles", "error", err)
		}
		time.Sleep(time.Second)
	}
	if err != nil {
		if failFast {
			fatal("initial training failed", "error", err)
		}
		slog.Error("initial training failed; serving 503s until a retrain succeeds", "error", err)
		return
	}
	slog.Info("initial training complete", "vehicles", len(snap.Statuses), "seconds", snap.TrainDuration.Seconds(), "workers", eng.Workers())
}

// reconcileRetrain sees the reconcile build of a restore through: it
// waits for the build that Engine.Restore runs after the model decode
// (near-free when the snapshot already covers the store: model keys
// match, everything reuses), and when that build failed, it retries
// while a partitioned cluster's peers come up, so crash recovery
// completes without waiting for the next telemetry batch or periodic
// tick. A retry that meets ErrRetrainInFlight is done: the models are
// decoded by then, so the build in flight started after the decode and
// reads the same source.
func reconcileRetrain(eng *engine.Engine, reconciled <-chan error, retries int, shard string) {
	slog.Info("reconciling restored generation with recovered telemetry (incremental)", "shard", shard)
	err := <-reconciled
	for attempt := 0; err != nil && !errors.Is(err, engine.ErrRetrainInFlight); attempt++ {
		if attempt >= retries {
			slog.Error("reconcile retrain failed; still serving the restored generation", "shard", shard, "error", err)
			return
		}
		if attempt == 0 {
			slog.Warn("reconcile retrain failed; retrying while the cluster assembles", "shard", shard, "error", err)
		}
		time.Sleep(time.Second)
		_, err = eng.TryRetrainFromSource(context.Background(), false)
	}
}

// openIngestStore opens the live telemetry store: WAL-backed when a
// directory is given (recovering checkpoint + journal before anything
// serves), purely in-memory otherwise.
func openIngestStore(walDir, fsyncPolicy string) *ingest.Store {
	if walDir == "" {
		return ingest.New(timeseries.DefaultAllowance)
	}
	policy, err := wal.ParseFsyncPolicy(fsyncPolicy)
	if err != nil {
		fatal("parsing -fsync", "error", err)
	}
	store, err := ingest.OpenDurable(timeseries.DefaultAllowance, ingest.DurableOptions{Dir: walDir, Fsync: policy})
	if err != nil {
		fatal("opening durable ingest store", "dir", walDir, "error", err)
	}
	if st := store.Stats(); st.WAL != nil {
		slog.Info("wal recovered", "dir", walDir, "vehicles", st.Vehicles, "seq", st.Seq,
			"replayed", st.WAL.ReplayRecords, "replay_seconds", st.WAL.ReplaySeconds, "open_seconds", st.WAL.OpenSeconds,
			"checkpoint_load_seconds", st.WAL.CheckpointLoadSeconds, "checkpoint_bytes", st.WAL.CheckpointBytes,
			"truncated_tail_events", st.WAL.TruncatedTailEvents, "fsync", fsyncPolicy)
	}
	return store
}

// seedStore loads the -data CSV into a live store that recovered
// empty, and into no other: CSV is seed data, and live telemetry takes
// over from there. Re-seeding a store recovered from its WAL would
// overwrite every acknowledged report that corrected a CSV day, and
// journal the reversion. A partitioned shard seeds only its ring-owned
// vehicles; peers' telemetry never lands here (storage ~1/N).
func seedStore(store *ingest.Store, data string, ring *cluster.Ring, shard string) error {
	if n := len(store.Vehicles()); n > 0 {
		slog.Info("-data not re-applied: the store recovered its telemetry", "file", data, "vehicles", n)
		return nil
	}
	fleet, err := readFleetCSV(data)
	if err != nil {
		return fmt.Errorf("reading fleet CSV: %w", err)
	}
	if ring != nil {
		owned := &telematics.Fleet{Config: fleet.Config}
		for _, v := range fleet.Vehicles {
			if ring.Owner(v.Profile.ID) == shard {
				owned.Vehicles = append(owned.Vehicles, v)
			}
		}
		fleet = owned
	}
	if len(fleet.Vehicles) == 0 {
		return nil
	}
	res, err := store.SeedFromFleet(fleet)
	if err != nil {
		return err
	}
	slog.Info("seeded ingest store", "file", data, "vehicles", len(res.Vehicles), "reports", res.Accepted)
	return nil
}

// snapshotSaver returns the spill hook, called with the shard name, or
// nil without a snapshot store. After a generation is persisted, a
// durable ingest store checkpoints and compacts its WAL — the
// compaction gate: a journal segment is only dropped once its content
// is covered by a checkpoint written under a persisted generation. The
// save is timed into the shard's encode stage when metrics returns the
// shard's training metrics (nil skips the observation).
func snapshotSaver(snaps *snapstore.Store, store *ingest.Store, metrics func(shard string) *engine.TrainMetrics) func(string, *engine.Snapshot) {
	if snaps == nil {
		return nil
	}
	return func(shard string, snap *engine.Snapshot) {
		t0 := time.Now()
		err := snaps.Save(shard, snap)
		if m := metrics(shard); m != nil {
			m.ObserveStage("encode", t0)
		}
		if err != nil {
			slog.Error("snapshot spill failed", "shard", shard, "generation", snap.Generation, "error", err)
			return
		}
		checkpointAfterSpill(store, shard, snap.Generation)
	}
}

// checkpointAfterSpill checkpoints a durable store once a generation
// is on disk; in-memory stores are a no-op.
func checkpointAfterSpill(store *ingest.Store, shard string, generation uint64) {
	if store == nil || !store.Durable() {
		return
	}
	res, err := store.CheckpointAndCompact()
	if err != nil {
		slog.Error("checkpoint after spill failed", "shard", shard, "generation", generation, "error", err)
		return
	}
	if res.SegmentsRemoved > 0 {
		slog.Info("generation persisted; wal checkpointed and compacted",
			"shard", shard, "generation", generation, "wal_index", res.WALIndex, "segments_removed", res.SegmentsRemoved)
	}
}

// readSnapshots starts reading and checking every shard's persisted
// snapshot file on one goroutine, decoding only the rows, and returns a
// lookup that waits for that read: the boot overlaps it with the WAL
// replay. Without a snapshot store every lookup reports a missing file.
func readSnapshots(snaps *snapstore.Store, shards []string) func(shard string) (*snapstore.Rows, error) {
	type loaded struct {
		rows *snapstore.Rows
		err  error
	}
	if snaps == nil {
		return func(string) (*snapstore.Rows, error) { return nil, os.ErrNotExist }
	}
	byShard := make(map[string]loaded, len(shards))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, sh := range shards {
			rows, err := snaps.LoadRows(sh)
			byShard[sh] = loaded{rows, err}
		}
	}()
	return func(shard string) (*snapstore.Rows, error) {
		<-done
		if l, ok := byShard[shard]; ok {
			return l.rows, l.err
		}
		return nil, os.ErrNotExist
	}
}

// restoreSnapshot publishes a shard's persisted rows and starts the
// decode of its models (and, with reconcile, the reconcile build after
// it; see Engine.Restore), reporting whether the engine now serves the
// restored generation and returning the reconcile's outcome. Missing
// spills are normal (first boot); anything else is logged and treated
// as a cold boot.
func restoreSnapshot(eng *engine.Engine, load func(shard string) (*snapstore.Rows, error), shard string, reconcile bool) (<-chan error, bool) {
	rows, err := load(shard)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			slog.Warn("ignoring unrestorable snapshot", "shard", shard, "error", err)
		}
		return nil, false
	}
	reconciled, err := eng.Restore(rows.Snapshot, rows.Models, reconcile)
	if err != nil {
		slog.Warn("ignoring unrestorable snapshot", "shard", shard, "error", err)
		return nil, false
	}
	return reconciled, true
}

// readFleetCSV loads a fleetgen CSV.
func readFleetCSV(path string) (*telematics.Fleet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fleet, err := telematics.ReadCSV(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return fleet, err
}

// csvSource re-reads and re-prepares the fleet CSV on every call, so a
// retrain ingests whatever telemetry has been appended since boot.
func csvSource(path string) engine.Source {
	return func(context.Context) ([]engine.Vehicle, error) {
		fleet, err := readFleetCSV(path)
		if err != nil {
			return nil, err
		}
		out := make([]engine.Vehicle, 0, len(fleet.Vehicles))
		for _, v := range fleet.Vehicles {
			prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, timeseries.DefaultAllowance)
			if err != nil {
				return nil, err
			}
			out = append(out, engine.Vehicle{Series: prep.Series, Start: prep.Start})
		}
		return out, nil
	}
}

// retrainLoop rebuilds every engine's snapshot on a fixed cadence,
// engines in parallel so the cadence is bounded by the slowest shard,
// not the sum of all shards. A tick that fires while a given engine is
// already building is skipped for that engine — not queued. Failures
// keep the previous snapshot serving and are retried at the next tick.
func retrainLoop(engines []*engine.Engine, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for range ticker.C {
		var wg sync.WaitGroup
		for _, eng := range engines {
			wg.Add(1)
			go func(eng *engine.Engine) {
				defer wg.Done()
				snap, err := eng.TryRetrainFromSource(context.Background(), false)
				if errors.Is(err, engine.ErrRetrainInFlight) {
					return
				}
				if err != nil {
					slog.Error("periodic retrain failed; still serving previous generation", "generation", eng.Status().Generation, "error", err)
					return
				}
				slog.Info("periodic retrain complete", "generation", snap.Generation, "vehicles", len(snap.Statuses),
					"reused", snap.Reused, "retrained", snap.Retrained, "predicted", snap.Predicted, "seconds", snap.TrainDuration.Seconds())
			}(eng)
		}
		wg.Wait()
	}
}
