// Prometheus-style plain-text metrics (GET /metrics) for the single
// server and the cluster router. The exposition is assembled with
// internal/obs: described gauges and counters for engine/ingest/WAL
// state, latency histograms per HTTP route and per scatter-gather shard
// call, per-stage training timings, and Go runtime health. The router
// scatters its shards' /metrics and relabels every sample with a
// shard="name" label, so one scrape of the front door sees the whole
// cluster without losing the per-shard breakdown.
package serve

import (
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics renders this server's operational state as Prometheus
// text. Everything here is lock-free or a short mutex away — the
// endpoint is safe to scrape at any frequency, concurrently with
// retrains and snapshot swaps.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var m obs.TextWriter

	st := s.engine.Status()
	m.GaugeBool("fleet_ready", "Whether a model snapshot is live.", st.Ready)
	m.GaugeBool("fleet_retraining", "Whether a snapshot build is in flight.", st.Retraining)
	m.GaugeUint("fleet_generation", "Generation of the current snapshot.", st.Generation)
	m.GaugeInt("fleet_vehicles", "Vehicles in the current snapshot.", int64(st.Vehicles))
	m.GaugeInt("fleet_vehicles_reused", "Vehicles carried forward by the last build.", int64(st.Reused))
	m.GaugeInt("fleet_vehicles_retrained", "Vehicles trained by the last build.", int64(st.Retrained))
	m.GaugeInt("fleet_vehicles_failed", "Vehicles whose training failed in the current snapshot.", int64(len(st.FailedVehicles)))
	m.Gauge("fleet_train_seconds", "Wall-clock duration of the last snapshot build.", st.TrainSeconds)
	m.GaugeInt("fleet_train_workers", "Training worker-pool bound.", int64(st.Workers))

	hits, misses := s.CacheStats()
	m.CounterUint("fleet_response_cache_hits", "Forecast responses served from the snapshot byte cache.", hits)
	m.CounterUint("fleet_response_cache_misses", "Forecast responses marshaled fresh.", misses)
	m.CounterUint("fleet_fleet_forecast_cache_hits", "GET /fleet/forecast responses served from the per-generation artifact cache.", s.fleetForecastCacheHits.Load())
	m.CounterUint("fleet_fleet_forecast_cache_misses", "GET /fleet/forecast bodies built fresh (once per generation).", s.fleetForecastCacheMisses.Load())
	m.CounterUint("fleet_vehicles_cache_hits", "GET /vehicles responses served from the per-generation artifact cache.", s.vehiclesCacheHits.Load())
	m.CounterUint("fleet_vehicles_cache_misses", "GET /vehicles bodies built fresh (once per generation).", s.vehiclesCacheMisses.Load())
	m.CounterUint("fleet_plan_cache_hits", "GET /fleet/plan responses served from the per-generation plan cache.", s.planCacheHits.Load())
	m.CounterUint("fleet_plan_cache_misses", "GET /fleet/plan bodies scheduled and marshaled fresh.", s.planCacheMisses.Load())
	m.CounterUint("fleet_http_not_modified_total", "Conditional GETs answered 304 Not Modified.", s.notModified.Load())

	s.routeHist.Write(&m)
	s.engine.Metrics().Write(&m)

	if s.ingest != nil {
		ist := s.ingest.Stats()
		m.GaugeInt("fleet_ingest_vehicles", "Vehicles in the telemetry store.", int64(ist.Vehicles))
		m.CounterUint("fleet_ingest_accepted", "Telemetry reports accepted.", ist.Accepted)
		m.CounterUint("fleet_ingest_rejected", "Telemetry reports rejected.", ist.Rejected)
		m.CounterUint("fleet_ingest_changed", "Accepted reports that changed stored content.", ist.Changed)
		m.GaugeUint("fleet_ingest_seq", "Store change sequence.", ist.Seq)
		m.CounterUint("fleet_ingest_prep_cache_hits", "Prepared-series cache hits across retrains.", ist.PrepCacheHits)
		m.CounterUint("fleet_ingest_prep_cache_misses", "Prepared-series cache misses across retrains.", ist.PrepCacheMisses)
		if ws := ist.WAL; ws != nil {
			m.GaugeInt("fleet_wal_segments", "WAL segment files (sealed + active).", int64(ws.Segments))
			m.GaugeInt("fleet_wal_bytes", "Total bytes across WAL segments.", ws.Bytes)
			m.GaugeUint("fleet_wal_first_index", "First record index still in the WAL.", ws.FirstIndex)
			m.GaugeUint("fleet_wal_last_index", "Last record index in the WAL.", ws.LastIndex)
			m.GaugeUint("fleet_wal_last_appended", "Newest record index this store journaled.", ws.LastAppended)
			m.CounterUint("fleet_wal_appends", "WAL appends since open.", ws.Appends)
			m.CounterUint("fleet_wal_rotations", "WAL segment rotations since open.", ws.Rotations)
			m.CounterUint("fleet_wal_fsyncs", "WAL fsyncs since open.", ws.Fsyncs)
			m.GaugeInt("fleet_wal_truncated_tail_events", "Corrupt tail frames cut off at the last open.", int64(ws.TruncatedTailEvents))
			m.GaugeInt("fleet_wal_replay_records", "Records replayed at the last boot recovery.", int64(ws.ReplayRecords))
			m.Gauge("fleet_wal_replay_seconds", "Duration of the last boot replay.", ws.ReplaySeconds)
			m.CounterUint("fleet_wal_compacted_segments", "WAL segments removed by compaction.", ws.CompactedSegments)
			m.GaugeUint("fleet_wal_checkpoint_index", "WAL index the durable checkpoint covers.", ws.CheckpointIndex)
			m.GaugeUint("fleet_wal_checkpoint_seq", "Store sequence the durable checkpoint covers.", ws.CheckpointSeq)
		}
		s.ingest.WriteMetrics(&m)

		m.Meta("fleet_ingest_door_batches", "Telemetry batches per ingest door.", obs.KindCounter)
		m.Meta("fleet_ingest_door_reports", "Telemetry reports (accepted or rejected) per ingest door.", obs.KindCounter)
		m.Meta("fleet_ingest_door_rejected", "Telemetry reports rejected per ingest door.", obs.KindCounter)
		m.Meta("fleet_ingest_door_allocs_per_report", "Sampled heap allocations per report on the door's decode+apply path.", obs.KindGauge)
		for i := range s.doors {
			d := &s.doors[i]
			labels := obs.RenderLabels("door", doorNames[i])
			m.SampleUint("fleet_ingest_door_batches", labels, d.batches.Load())
			m.SampleUint("fleet_ingest_door_reports", labels, d.reports.Load())
			m.SampleUint("fleet_ingest_door_rejected", labels, d.rejected.Load())
			if apr := d.allocsPerReport(); apr >= 0 {
				m.Sample("fleet_ingest_door_allocs_per_report", labels, apr)
			}
		}
	}

	obs.WriteRuntimeMetrics(&m)

	w.Header().Set("Content-Type", metricsContentType)
	_, _ = w.Write([]byte(m.String()))
}

// relabelMetrics rewrites one shard's exposition so every sample
// carries a shard="name" label: `a 1` becomes `a{shard="s0"} 1` and
// `a{x="y"} 1` becomes `a{shard="s0",x="y"} 1` — the shard label is
// merged into an existing label set, never assumed absent. `# HELP` and
// `# TYPE` comments are relayed once per metric name across all shards
// (described tracks names already commented — pass the scrape-wide set
// so N shards do not yield N copies); other comment and unparseable
// lines are dropped rather than relayed mislabeled.
func relabelMetrics(text, shard string, described map[string]bool) string {
	shardLabel := obs.RenderLabels("shard", shard)
	var b strings.Builder
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			// "# HELP <name> ..." / "# TYPE <name> <kind>"
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				// One described set covers both comment kinds: HELP and
				// TYPE always arrive as a pair from obs.TextWriter, so
				// keying on "<kind> <name>" relays both exactly once.
				key := fields[1] + " " + fields[2]
				if described[key] {
					continue
				}
				described[key] = true
				b.WriteString(line)
				b.WriteByte('\n')
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		if brace := strings.IndexByte(series, '{'); brace >= 0 {
			if !strings.HasSuffix(series, "}") {
				continue // torn label set; drop rather than mislabel
			}
			b.WriteString(series[:brace+1])
			b.WriteString(shardLabel)
			if series[brace+1] != '}' {
				b.WriteByte(',')
			}
			b.WriteString(series[brace+1:])
		} else {
			b.WriteString(series)
			b.WriteByte('{')
			b.WriteString(shardLabel)
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(value)
		b.WriteByte('\n')
	}
	return b.String()
}

// handleMetrics on the router writes the router's own state (route
// latencies, per-shard call latencies, runtime health), then scatters
// GET /metrics to every shard and concatenates the relabeled
// expositions in shard-name order, so the merged scrape is
// deterministic. A shard that fails to answer contributes a
// fleet_shard_up 0 marker instead of failing the scrape — metrics must
// stay readable exactly when parts of the fleet are not.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var m obs.TextWriter
	rt.routeHist.Write(&m)
	rt.shardCall.Write(&m)
	rt.shardCallErrs.Write(&m)
	m.CounterUint("fleet_router_merge_cache_hits", "Fleet-wide reads served from the merged-response cache (shard generation vector unchanged).", rt.mergeHits.Load())
	m.CounterUint("fleet_router_merge_cache_misses", "Fleet-wide reads that re-merged shard payloads.", rt.mergeMisses.Load())
	m.CounterUint("fleet_router_merge_cache_invalidations", "Merged-response cache entries replaced because a shard generation moved.", rt.mergeInvalidations.Load())
	m.CounterUint("fleet_router_merge_cache_torn", "Gathers served but not cached because a shard's ETag and generation echo disagreed (mid-retrain).", rt.mergeTorn.Load())
	m.CounterUint("fleet_router_shard_not_modified_total", "Per-shard fetches validated unchanged (HTTP 304 or in-process tag match).", rt.shardNotModified.Load())
	m.CounterUint("fleet_router_plan_cache_hits", "GET /fleet/plan responses served from the router plan cache.", rt.planCacheHits.Load())
	m.CounterUint("fleet_router_plan_cache_misses", "GET /fleet/plan bodies decoded, scheduled, and marshaled fresh at the router.", rt.planCacheMisses.Load())
	m.CounterUint("fleet_router_plan_decode_hits", "Plan builds that reused the decoded requests of an earlier gather at the same merged tag and day.", rt.planDecodeHits.Load())
	m.CounterUint("fleet_router_plan_decode_misses", "Plan builds that decoded the merged forecast payload.", rt.planDecodeMisses.Load())
	m.CounterUint("fleet_router_plan_torn_bypass", "Plans built from torn gathers: served to the caller, never cached.", rt.planTornBypass.Load())
	m.CounterUint("fleet_http_not_modified_total", "Conditional GETs answered 304 Not Modified by the router.", rt.notModified.Load())
	obs.WriteRuntimeMetrics(&m)

	resps := rt.scatter(r.Context(), http.MethodGet, "/metrics", nil, nil, rt.timeout)
	sort.Slice(resps, func(i, j int) bool { return resps[i].shard < resps[j].shard })
	described := make(map[string]bool)
	for _, name := range m.DescribedNames() {
		described["HELP "+name] = true
		described["TYPE "+name] = true
	}
	m.Meta("fleet_shard_up", "Whether the shard answered the metrics scatter.", obs.KindGauge)
	for _, resp := range resps {
		up := resp.err == nil && resp.status == http.StatusOK
		m.SampleInt("fleet_shard_up", obs.RenderLabels("shard", resp.shard), int64(boolInt(up)))
		if up {
			m.Raw(relabelMetrics(string(resp.body), resp.shard, described))
		}
	}
	w.Header().Set("Content-Type", metricsContentType)
	_, _ = w.Write([]byte(m.String()))
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
