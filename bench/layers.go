package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// perLayer are the metrics of single layers, named <module>.<metric>
// after the package under internal/ that does the work. A traced run
// reports every one of them. Three sources feed them: the run's spans
// and status poller (T), the delta of the server's own /metrics over
// the traffic (M), and the bench/probes program run on the workload's
// seed fleet (P). README.md says which end-to-end metric each should
// move.
var perLayer = []metricDef{
	// T: the freshness budget of the median report. The four add up to
	// serve.freshness_budget_ms by construction.
	{Name: "serve.ack_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.dirty_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.build_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.visible_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.freshness_budget_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.freshness_old_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.freshness_seminew_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.freshness_new_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.retrained_per_gen", Unit: "count", Better: "lower"},
	// T: what the sandbox cannot hold steady enough to bound — the fsync
	// of an acknowledgement and the tails.
	{Name: "serve.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.freshness_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_tail_us", Unit: "us", Better: "lower"},
	{Name: "serve.route_forecast_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.route_fleet_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.route_plan_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.first_read_after_gen_us", Unit: "us", Better: "lower"},
	{Name: "serve.rss_window_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.generator_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	// M: deltas of the server's own series.
	{Name: "engine.stage_prep_s", Unit: "s", Better: "lower"},
	{Name: "engine.stage_plan_s", Unit: "s", Better: "lower"},
	{Name: "engine.stage_fit_s", Unit: "s", Better: "lower"},
	{Name: "engine.stage_publish_s", Unit: "s", Better: "lower"},
	{Name: "ingest.prep_cache_hit_share", Unit: "%", Better: "higher"},
	{Name: "wal.fsyncs_per_append", Unit: "count", Better: "lower"},
	{Name: "serve.not_modified_share", Unit: "%", Better: "higher"},
	{Name: "serve.cache_hit_share", Unit: "%", Better: "higher"},
	{Name: "cluster.shard_skew", Unit: "count", Better: "lower"},
	// P: bench/probes on the workload's seed fleet.
	{Name: "engine.cold_train_s", Unit: "s", Better: "lower"},
	{Name: "engine.retrain_old_dirty_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.retrain_new_dirty_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_old_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_seminew_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unified_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.fit_lr_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.fit_lsvr_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.fit_rf_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.fit_xgb_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.fit_rows_p50", Unit: "count", Better: "lower"},
	{Name: "ml.fit_rows_max", Unit: "count", Better: "lower"},
	{Name: "ml.hist_direct_nodes", Unit: "count", Better: "lower"},
	{Name: "ml.hist_derived_nodes", Unit: "count", Better: "higher"},
	{Name: "dataprep.prepare_us_per_vehicle", Unit: "us", Better: "lower"},
	{Name: "ingest.fleet_fetch_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.fleet_fetch_one_dirty_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.upsert_binary_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "ingest.upsert_json_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "ingest.redelivery_ns_per_report", Unit: "ns", Better: "lower"},
	{Name: "ingest.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_always_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_interval_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_report", Unit: "count", Better: "lower"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "snapstore.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snapstore.load_ms", Unit: "ms", Better: "lower"},
	{Name: "snapstore.bytes_per_vehicle", Unit: "count", Better: "lower"},
	{Name: "sched.schedule_us", Unit: "us", Better: "lower"},
}

// scrape is one reading of GET /metrics: series (name plus labels, the
// router's shard label removed) → value, summed over shards.
type scrape map[string]float64

// scrapeServer reads the server's /metrics. An unreachable or changed
// endpoint yields an empty scrape, and the metrics derived from it are
// reported absent — the end-to-end numbers never depend on it.
func (r *run) scrapeServer() scrape {
	out := scrape{}
	res, err := get(r.c, r.srv.base+"/metrics", "")
	if err != nil || res.status != 200 {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(res.body))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[stripShardLabel(line[:sp])] += v
	}
	return out
}

// stripShardLabel removes the shard="..." label the router adds, so a
// sharded and a single server expose the same series names.
func stripShardLabel(series string) string {
	open := strings.IndexByte(series, '{')
	if open < 0 || !strings.HasSuffix(series, "}") {
		return series
	}
	var kept []string
	for _, label := range strings.Split(series[open+1:len(series)-1], ",") {
		if !strings.HasPrefix(label, `shard="`) {
			kept = append(kept, label)
		}
	}
	if len(kept) == 0 {
		return series[:open]
	}
	return series[:open] + "{" + strings.Join(kept, ",") + "}"
}

// addDelta accumulates after−before for every series, so that a
// workload whose server restarts between segments still sums counters
// correctly.
func (r *run) addDelta(before, after scrape) {
	if r.delta == nil {
		r.delta = scrape{}
	}
	for k, v := range after {
		r.delta[k] += v - before[k]
	}
}

// layerMetrics fills rec.Metrics with every per-layer metric and
// returns the spans with the reconstructed build and spill spans added.
// A metric whose source was missing is reported as 0 and listed absent.
func (r *run) layerMetrics(rec *record, spans []span) []span {
	set := func(name string, v float64, n int) { rec.set(perLayer, name, v, n) }
	spans = r.traceMetrics(rec, spans, set)
	r.seriesMetrics(set)
	for name, v := range r.probed {
		set(name, v, 0)
	}
	for _, d := range perLayer {
		if _, ok := rec.Metrics[d.Name]; !ok {
			set(d.Name, 0, 0)
			rec.Absent = append(rec.Absent, d.Name)
		}
	}
	return spans
}

type setFunc func(name string, v float64, n int)

// generationOf parses the counter out of an X-Fleet-Generation value
// ("g<counter>-<build time>").
func generationOf(tag string) (uint64, bool) {
	tag = strings.TrimPrefix(tag, "g")
	if i := strings.IndexByte(tag, '-'); i > 0 {
		tag = tag[:i]
	}
	g, err := strconv.ParseUint(tag, 10, 64)
	return g, err == nil
}

// traceMetrics derives the T metrics; one without samples in this run
// reads 0 with n=0. For every sampled report seen
// while the poller ran, the covering generation is the one named by the
// revealing read's generation header; the report's freshness is cut at
// that generation's build start and publication into ack, dirty wait,
// build and visible, which therefore sum to it exactly.
func (r *run) traceMetrics(rec *record, spans []span, set setFunc) []span {
	// Build and spill spans from the poller's events.
	nextID := len(spans) + 1
	buildID := map[int]int{} // event index → build span ID
	var spill, retrained []float64
	for i, ev := range r.events {
		start := ev.buildStart
		if start == 0 {
			start = ev.published
		}
		spans = append(spans, span{ID: nextID, Name: spanBuild, Shard: ev.shard, Gen: strconv.FormatUint(ev.generation, 10), Due: start, Start: start, End: ev.published})
		buildID[i] = nextID
		nextID++
		if ev.idle > 0 {
			spans = append(spans, span{ID: nextID, Parent: buildID[i], Name: spanSpill, Shard: ev.shard, Gen: strconv.FormatUint(ev.generation, 10), Due: ev.published, Start: ev.published, End: ev.idle})
			nextID++
			spill = append(spill, ms(ev.idle-ev.published))
		}
		retrained = append(retrained, float64(ev.retrained))
	}

	reveal := map[int]span{} // fresh span ID → revealing read
	for _, s := range spans {
		if s.Name == spanReveal {
			reveal[s.Parent] = s
		}
	}
	type budget struct{ total, ack, wait, build, visible float64 }
	var budgets []budget
	byCategory := map[string][]float64{}
	var tracedFresh, untracedFresh []float64
	for i := range spans {
		s := &spans[i]
		if s.Name != spanFresh || s.Failed != "" {
			continue
		}
		if !s.Traced {
			untracedFresh = append(untracedFresh, ms(s.latency()))
			continue
		}
		tracedFresh = append(tracedFresh, ms(s.latency()))
		byCategory[s.Category] = append(byCategory[s.Category], ms(s.latency()))
		rv, ok := reveal[s.ID]
		gen, okGen := generationOf(rv.Gen)
		if !ok || !okGen {
			continue
		}
		// The covering event: the latest one with that counter that was
		// published before the revealing read was answered (one poll
		// period of slack, since the poller sees publication late).
		best := -1
		for j, ev := range r.events {
			if ev.generation == gen && ev.published <= rv.End+pollEvery && (best < 0 || ev.published > r.events[best].published) {
				best = j
			}
		}
		if best < 0 {
			continue
		}
		ev := r.events[best]
		s.Parent, s.Shard = buildID[best], ev.shard // report → covering build
		ackAt := s.Start
		buildAt := max(ackAt, ev.buildStart)
		pubAt := min(max(buildAt, ev.published), s.End)
		budgets = append(budgets, budget{
			total: ms(s.End - s.Due), ack: ms(ackAt - s.Due), wait: ms(buildAt - ackAt),
			build: ms(pubAt - buildAt), visible: ms(s.End - pubAt),
		})
	}

	// The budget of the median report: the mean of each component over
	// the middle fifth of reports by freshness. Medians of the four
	// components would not add up to the median freshness; one report's
	// would, but one report is noise.
	sort.Slice(budgets, func(i, j int) bool { return budgets[i].total < budgets[j].total })
	var b budget
	n, k := len(budgets), 1.0
	if n > 0 {
		lo, hi := n*2/5, n*3/5
		if hi <= lo {
			lo, hi = n/2, n/2+1
		}
		for _, x := range budgets[lo:hi] {
			b.total += x.total
			b.ack += x.ack
			b.wait += x.wait
			b.build += x.build
			b.visible += x.visible
		}
		k = float64(hi - lo)
	}
	set("serve.ack_ms", b.ack/k, n)
	set("serve.dirty_wait_ms", b.wait/k, n)
	set("engine.build_ms", b.build/k, n)
	set("serve.visible_ms", b.visible/k, n)
	set("serve.freshness_budget_ms", b.total/k, n)
	set("engine.freshness_old_p50_ms", median(byCategory[catOld]), len(byCategory[catOld]))
	set("engine.freshness_seminew_p50_ms", median(byCategory[catSemiNew]), len(byCategory[catSemiNew]))
	set("engine.freshness_new_p50_ms", median(byCategory[catNew]), len(byCategory[catNew]))
	sum := 0.0
	for _, x := range retrained {
		sum += x
	}
	set("engine.retrained_per_gen", sum/max(1, float64(len(retrained))), len(retrained))

	// Reads: per route, the first fleet-wide read after each
	// generation, and the tails.
	byRoute := map[string][]float64{}
	var tracedRead, untracedRead []float64
	var fleetReads []span
	for _, s := range spans {
		if s.Name != spanRead || s.Failed != "" {
			continue
		}
		byRoute[s.Route] = append(byRoute[s.Route], us(s.latency()))
		if s.Traced {
			tracedRead = append(tracedRead, us(s.latency()))
		} else {
			untracedRead = append(untracedRead, us(s.latency()))
		}
		if s.Route != routeForecast {
			fleetReads = append(fleetReads, s)
		}
	}
	set("serve.route_forecast_p50_us", median(byRoute[routeForecast]), len(byRoute[routeForecast]))
	set("serve.route_fleet_p50_us", median(byRoute[routeFleet]), len(byRoute[routeFleet]))
	set("serve.route_plan_p50_us", median(byRoute[routePlan]), len(byRoute[routePlan]))
	sort.Slice(fleetReads, func(i, j int) bool { return fleetReads[i].Start < fleetReads[j].Start })
	var firstReads []float64
	for _, ev := range r.events {
		i := sort.Search(len(fleetReads), func(i int) bool { return fleetReads[i].Start >= ev.published })
		if i < len(fleetReads) {
			firstReads = append(firstReads, us(fleetReads[i].latency()))
		}
	}
	set("serve.first_read_after_gen_us", median(firstReads), len(firstReads))
	at, ft, rt := rec.Timings["ack_ms"], rec.Timings["freshness_ms"], rec.Timings["read_us"]
	set("serve.ack_p50_ms", at.P50, at.N)
	set("serve.freshness_tail_ms", ft.Tail, ft.N)
	set("serve.read_tail_us", rt.Tail, rt.N)
	set("serve.rss_window_peak_mb", r.windowRSS, 0)
	rec.Timings["spill_ms"] = summarise(spill)

	late := rec.Timings["generator_late_ms"]
	set("bench.generator_late_p99_ms", late.at(99), late.N)
	// Tracing overhead: the median read (or, without reads, the median
	// freshness) while the poller ran against the untraced first quarter
	// of the same segments.
	switch {
	case len(tracedRead) > 0 && len(untracedRead) > 0:
		set("bench.trace_overhead_pct", 100*(median(tracedRead)/median(untracedRead)-1), len(untracedRead))
	case len(tracedFresh) > 0 && len(untracedFresh) > 0:
		set("bench.trace_overhead_pct", 100*(median(tracedFresh)/median(untracedFresh)-1), len(untracedFresh))
	}
	return spans
}

// seriesMetrics derives the M metrics from the accumulated /metrics
// deltas; one whose series are gone is left unset.
func (r *run) seriesMetrics(set setFunc) {
	d := r.delta
	has := func(keys ...string) bool {
		for _, k := range keys {
			if _, ok := d[k]; !ok {
				return false
			}
		}
		return true
	}
	stageSum := func(stage string) string { return fmt.Sprintf(`fleet_train_stage_seconds_sum{stage="%s"}`, stage) }
	stageCount := func(stage string) int {
		return int(d[fmt.Sprintf(`fleet_train_stage_seconds_count{stage="%s"}`, stage)])
	}
	for _, stage := range []string{"prep", "plan", "fit"} {
		if has(stageSum(stage)) {
			set("engine.stage_"+stage+"_s", d[stageSum(stage)], stageCount(stage))
		}
	}
	// Freezing the snapshot and — where a snapshot directory is
	// configured — encoding it to disk: one metric, because a server
	// without snapshots has no encode stage to report.
	if has(stageSum("snapshot")) {
		set("engine.stage_publish_s", d[stageSum("snapshot")]+d[stageSum("encode")], stageCount("snapshot"))
	}
	share := func(name string, hits, misses float64) {
		if hits+misses > 0 {
			set(name, 100*hits/(hits+misses), int(hits+misses))
		}
	}
	share("ingest.prep_cache_hit_share", d["fleet_ingest_prep_cache_hits"], d["fleet_ingest_prep_cache_misses"])
	// Cache hits over every generation-keyed cache on the read path.
	hits, misses := 0.0, 0.0
	for _, c := range []string{"fleet_response_cache", "fleet_fleet_forecast_cache", "fleet_plan_cache", "fleet_router_merge_cache", "fleet_router_plan_cache"} {
		hits, misses = hits+d[c+"_hits"], misses+d[c+"_misses"]
	}
	share("serve.cache_hit_share", hits, misses)
	reads := 0.0
	for k, v := range d {
		if strings.HasPrefix(k, "fleet_http_request_seconds_count{") && (strings.Contains(k, "/forecast") || strings.Contains(k, "/fleet/plan")) {
			reads += v
		}
	}
	if has("fleet_http_not_modified_total") {
		share("serve.not_modified_share", d["fleet_http_not_modified_total"], reads-d["fleet_http_not_modified_total"])
	}
	if d["fleet_wal_appends"] > 0 {
		set("wal.fsyncs_per_append", d["fleet_wal_fsyncs"]/d["fleet_wal_appends"], int(d["fleet_wal_appends"]))
	}
	if r.shardSkew > 0 {
		set("cluster.shard_skew", r.shardSkew, 0)
	}
}

// noteShardSkew records max ÷ mean vehicles per shard from GET
// /admin/status (1 for a single engine).
func (r *run) noteShardSkew() {
	var st routerStatus
	if err := getJSON(r.c, r.srv.base+"/admin/status", &st); err != nil {
		return
	}
	most, total, n := 0, 0, 0
	for _, sh := range st.shards() {
		most, total, n = max(most, sh.Vehicles), total+sh.Vehicles, n+1
	}
	if total > 0 {
		r.shardSkew = float64(most) * float64(n) / float64(total)
	}
}

// runProbes runs bench/probes on the seed fleet. A probe program that
// fails — because an entry point it calls was changed — only makes its
// metrics absent.
func (r *run) runProbes(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 100*time.Second)
	defer cancel()
	out, err := runTool(ctx, r.bins.probes, "-data", r.seedCSV, "-dir", filepath.Join(r.dir, "probes"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: probes failed, their metrics are absent:", err)
		return
	}
	if err := json.Unmarshal(out, &r.probed); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench: probes printed no metrics object:", err)
	}
}
