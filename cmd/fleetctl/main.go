// Command fleetctl inspects a fleet CSV (as produced by fleetgen) and
// serves the deployed-system workflow from the command line: categorize
// vehicles, show maintenance cycles, forecast the next maintenance
// date for every vehicle, and inspect a running fleetserver's ingest
// store (durability/WAL state included).
//
// Usage:
//
//	fleetctl -data fleet.csv status            # categories + cycles
//	fleetctl -data fleet.csv cycles -vehicle v01
//	fleetctl -data fleet.csv predict [-w 6] [-workers 8] [-shards 4]
//	                                           # train + forecast fleet
//	                                           # (-shards N partitions
//	                                           # training; same output)
//	fleetctl ingest [-url http://host:8080]    # live ingest-store stats
//	                                           # (vehicles, WAL segments,
//	                                           # replay, checkpoint) from
//	                                           # a server or a cluster
//	                                           # router
//	fleetctl metrics [-url http://host:8080]   # scrape /metrics and
//	                                           # pretty-print readiness,
//	                                           # generation, p50/p99 route
//	                                           # latencies and WAL state,
//	                                           # grouped per shard
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetctl: ")

	var (
		data    = flag.String("data", "", "fleet CSV file (required except for ingest)")
		vehicle = flag.String("vehicle", "", "vehicle ID filter (cycles)")
		window  = flag.Int("w", 6, "feature window W for predict")
		workers = flag.Int("workers", 0, "training pool size for predict (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 1, "train predict on this many consistent-hash engine shards (output is bit-identical to -shards 1)")
		url     = flag.String("url", "http://127.0.0.1:8080", "fleetserver (or cluster router) base URL for ingest")
	)
	flag.Parse()
	if flag.NArg() >= 1 && flag.Arg(0) == "ingest" {
		// Subcommand-local flags, so both `fleetctl ingest -url X` and
		// `fleetctl -url X ingest` work.
		fs := flag.NewFlagSet("ingest", flag.ExitOnError)
		subURL := fs.String("url", *url, "fleetserver (or cluster router) base URL")
		_ = fs.Parse(flag.Args()[1:])
		if err := ingestStats(*subURL); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "metrics" {
		fs := flag.NewFlagSet("metrics", flag.ExitOnError)
		subURL := fs.String("url", *url, "fleetserver (or cluster router) base URL")
		_ = fs.Parse(flag.Args()[1:])
		if err := metricsSummary(*subURL); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *data == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fleetctl -data fleet.csv [flags] status|cycles|predict")
		fmt.Fprintln(os.Stderr, "       fleetctl ingest [-url http://host:8080]")
		fmt.Fprintln(os.Stderr, "       fleetctl metrics [-url http://host:8080]")
		os.Exit(2)
	}

	f, err := os.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := telematics.ReadCSV(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}

	prepared := make([]*dataprep.PreparedVehicle, 0, len(fleet.Vehicles))
	for _, v := range fleet.Vehicles {
		p, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, timeseries.DefaultAllowance)
		if err != nil {
			log.Fatal(err)
		}
		prepared = append(prepared, p)
	}

	switch flag.Arg(0) {
	case "status":
		status(prepared)
	case "cycles":
		cycles(prepared, *vehicle)
	case "predict":
		predict(prepared, *window, *workers, *shards)
	default:
		log.Fatalf("unknown subcommand %q (want status, cycles or predict)", flag.Arg(0))
	}
}

// ingestStats fetches GET /admin/ingest from a fleetserver — or a
// cluster router, whose payload nests per-shard stats — and
// pretty-prints the store and WAL/durability state.
func ingestStats(baseURL string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(baseURL + "/admin/ingest")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/admin/ingest answered %s: %s", baseURL, resp.Status, body)
	}

	// A router payload is {"shards":{name:stats,...}}; a single server
	// answers the stats object directly.
	var router serve.RouterIngestJSON
	if err := json.Unmarshal(body, &router); err == nil && len(router.Shards) > 0 {
		names := make([]string, 0, len(router.Shards))
		for name := range router.Shards {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("=== shard %s ===\n", name)
			printIngestStats(router.Shards[name])
		}
		return nil
	}
	var st serve.IngestStatsJSON
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decoding /admin/ingest payload: %w", err)
	}
	printIngestStats(st)
	return nil
}

func printIngestStats(st serve.IngestStatsJSON) {
	fmt.Printf("vehicles      %d\n", st.Vehicles)
	fmt.Printf("reports       %d accepted, %d rejected, %d changed content (seq %d)\n",
		st.Accepted, st.Rejected, st.Changed, st.Seq)
	fmt.Printf("prep cache    %d hits, %d misses\n", st.PrepCacheHits, st.PrepCacheMisses)
	if st.RetrainDirtyThreshold > 0 {
		fmt.Printf("retrain       auto at %d dirty vehicles (%d dirty now)\n",
			st.RetrainDirtyThreshold, len(st.DirtySinceLastRetrain))
	} else {
		fmt.Printf("retrain       manual/periodic only\n")
	}
	if st.WAL == nil {
		fmt.Printf("durability    in-memory (no WAL)\n")
		return
	}
	w := st.WAL
	fmt.Printf("wal           %s\n", w.Dir)
	fmt.Printf("  segments    %d (%d bytes, records %d..%d, %d compacted)\n",
		w.Segments, w.Bytes, w.FirstIndex, w.LastIndex, w.CompactedSegments)
	fmt.Printf("  appends     %d (%d rotations, %d fsyncs, last fsync %s)\n",
		w.Appends, w.Rotations, w.Fsyncs, orNever(w.LastFsync))
	fmt.Printf("  replay      %d records in %.3fs (open %.3fs), %d truncated-tail events\n",
		w.ReplayRecords, w.ReplaySeconds, w.OpenSeconds, w.TruncatedTailEvents)
	fmt.Printf("  checkpoint  wal index %d, seq %d, %d bytes (boot load %.3fs), written %s\n",
		w.CheckpointIndex, w.CheckpointSeq, w.CheckpointBytes, w.CheckpointLoadSeconds, orNever(w.LastCheckpoint))
}

// metricsSummary scrapes GET /metrics — from a single fleetserver or a
// cluster router, whose merged exposition labels each shard's series
// with shard="name" — and pretty-prints the key series: readiness,
// generation, WAL state, and p50/p99 request latency per route,
// estimated from the cumulative histogram buckets.
func metricsSummary(baseURL string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/metrics answered %s: %s", baseURL, resp.Status, body)
	}
	samples, err := obs.ParseText(string(body))
	if err != nil {
		return fmt.Errorf("parsing /metrics exposition: %w", err)
	}

	// Group by the shard label ("" = a single server, or the router's
	// own series on a cluster scrape).
	type routeKey struct{ shard, route string }
	gauges := make(map[string]map[string]float64)
	buckets := make(map[routeKey]map[float64]uint64)
	for _, s := range samples {
		shard := s.Label("shard")
		if s.Name == "fleet_http_request_seconds_bucket" {
			le, err := strconv.ParseFloat(s.Label("le"), 64)
			if err != nil {
				continue
			}
			k := routeKey{shard, s.Label("route")}
			if buckets[k] == nil {
				buckets[k] = make(map[float64]uint64)
			}
			buckets[k][le] = uint64(s.Value)
			continue
		}
		if gauges[shard] == nil {
			gauges[shard] = make(map[string]float64)
		}
		if len(s.Labels) == 0 || (len(s.Labels) == 1 && shard != "") {
			gauges[shard][s.Name] = s.Value
		}
	}

	shards := make(map[string]bool)
	for sh := range gauges {
		shards[sh] = true
	}
	for k := range buckets {
		shards[k.shard] = true
	}
	names := make([]string, 0, len(shards))
	for sh := range shards {
		names = append(names, sh)
	}
	sort.Strings(names) // "" (this process) sorts first

	for _, sh := range names {
		title := "this process"
		if sh != "" {
			title = "shard " + sh
		}
		fmt.Printf("=== %s ===\n", title)
		g := gauges[sh]
		if _, ok := g["fleet_ready"]; ok {
			fmt.Printf("ready         %.0f (generation %.0f, %.0f vehicles, retraining %.0f)\n",
				g["fleet_ready"], g["fleet_generation"], g["fleet_vehicles"], g["fleet_retraining"])
			fmt.Printf("last train    %.1fs (%.0f reused, %.0f retrained, %.0f failed)\n",
				g["fleet_train_seconds"], g["fleet_vehicles_reused"], g["fleet_vehicles_retrained"], g["fleet_vehicles_failed"])
		}
		if up, ok := g["fleet_shard_up"]; ok {
			fmt.Printf("up            %.0f\n", up)
		}
		if segs, ok := g["fleet_wal_segments"]; ok {
			fmt.Printf("wal           %.0f segments, %.0f bytes, %.0f appends, %.0f fsyncs\n",
				segs, g["fleet_wal_bytes"], g["fleet_wal_appends"], g["fleet_wal_fsyncs"])
		}

		var routes []string
		for k := range buckets {
			if k.shard == sh {
				routes = append(routes, k.route)
			}
		}
		sort.Strings(routes)
		header := false
		for _, route := range routes {
			bs := buckets[routeKey{sh, route}]
			bounds := make([]float64, 0, len(bs))
			for le := range bs {
				bounds = append(bounds, le)
			}
			sort.Float64s(bounds)
			cum := make([]uint64, len(bounds))
			for i, le := range bounds {
				cum[i] = bs[le]
			}
			if len(cum) == 0 || cum[len(cum)-1] == 0 {
				continue
			}
			if !header {
				fmt.Printf("routes:\n")
				header = true
			}
			p50 := obs.QuantileFromBuckets(bounds, cum, 0.50)
			p99 := obs.QuantileFromBuckets(bounds, cum, 0.99)
			fmt.Printf("  %-34s n=%-7d p50 %9.3fms  p99 %9.3fms\n",
				route, cum[len(cum)-1], p50*1000, p99*1000)
		}
	}
	return nil
}

func orNever(s string) string {
	if s == "" {
		return "never"
	}
	return s
}

func status(prepared []*dataprep.PreparedVehicle) {
	fmt.Printf("%-6s %-10s %8s %10s %12s %9s\n", "veh", "category", "days", "cycles", "total-usage", "repaired")
	for _, p := range prepared {
		cat := core.Categorize(p.Series)
		fmt.Printf("%-6s %-10s %8d %10d %12.0f %9d\n",
			p.ID, cat, len(p.Series.U), len(p.Series.CompleteCycles()), p.Series.CumulativeUsage(), p.Clean.Total())
	}
}

func cycles(prepared []*dataprep.PreparedVehicle, vehicle string) {
	for _, p := range prepared {
		if vehicle != "" && p.ID != vehicle {
			continue
		}
		fmt.Printf("vehicle %s (%d cycles):\n", p.ID, len(p.Series.Cycles))
		for _, c := range p.Series.Cycles {
			state := "complete"
			if !c.Complete {
				state = "in progress"
			}
			fmt.Printf("  cycle %2d: days [%4d, %4d) = %3d days, usage %9.0f s, %s\n",
				c.Index, c.Start, c.End, c.Days(), c.Usage, state)
		}
	}
}

func predict(prepared []*dataprep.PreparedVehicle, window, workers, shards int) {
	cfg := core.DefaultPredictorConfig()
	cfg.Window = window
	fleet := make([]engine.Vehicle, 0, len(prepared))
	for _, p := range prepared {
		fleet = append(fleet, engine.Vehicle{Series: p.Series, Start: p.Start})
	}

	// Gather (forecasts, statuses, errors) from one engine or from a
	// sharded group; the sharded path merges by vehicle ID and is
	// bit-identical to the unsharded one (per-vehicle seeds are
	// ID-derived and the donor pool is fleet-wide on every shard).
	var (
		forecasts []core.Forecast
		statuses  = make(map[string]core.VehicleStatus)
		fcErrors  = make(map[string]string)
	)
	if shards <= 1 {
		eng, err := engine.New(engine.Config{Predictor: cfg, Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		snap, err := eng.Retrain(context.Background(), fleet)
		if err != nil {
			log.Fatal(err)
		}
		forecasts = snap.Forecasts
		statuses = snap.StatusByID
		fcErrors = snap.ForecastErrors
	} else {
		sharded, err := cluster.NewSharded(cluster.ShardedConfig{
			Engine: engine.Config{Predictor: cfg, Workers: workers},
			Base:   func(context.Context) ([]engine.Vehicle, error) { return fleet, nil },
			Shards: shards,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sharded.RetrainAll(context.Background()); err != nil {
			log.Fatal(err)
		}
		for _, sh := range sharded.Shards() {
			snap := sh.Engine.Snapshot()
			forecasts = append(forecasts, snap.Forecasts...)
			for id, st := range snap.StatusByID {
				statuses[id] = st
			}
			for id, msg := range snap.ForecastErrors {
				fcErrors[id] = msg
			}
		}
		sort.Slice(forecasts, func(i, j int) bool { return forecasts[i].VehicleID < forecasts[j].VehicleID })
	}

	ids := make([]string, 0, len(fcErrors))
	for id := range fcErrors {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		log.Printf("no forecast for %s: %s", id, fcErrors[id])
	}
	fmt.Printf("%-6s %-10s %-12s %-5s %10s %12s %10s\n", "veh", "category", "strategy", "alg", "days-left", "due-date", "val-MRE")
	for _, fc := range forecasts {
		st := statuses[fc.VehicleID]
		val := "-"
		if !math.IsNaN(st.ValidationMRE) {
			val = fmt.Sprintf("%.2f", st.ValidationMRE)
		}
		fmt.Printf("%-6s %-10s %-12s %-5s %10.1f %12s %10s\n",
			fc.VehicleID, fc.Category, fc.Strategy, st.Algorithm, fc.DaysLeft, fc.DueDate.Format("2006-01-02"), val)
	}
}
