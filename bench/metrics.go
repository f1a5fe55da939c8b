package main

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric of the benchmark contract. BENCHMARK.json
// lists the same names, units, directions and bounds; a unit test keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the fleet service sees. Every
// workload reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"freshness_p50_ms", "ms", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"read_req_per_s", "1/s", "higher", 0.25},
	{"ingest_reports_per_s", "1/s", "higher", 0.25},
	{"ingest_json_reports_per_s", "1/s", "higher", 0.25},
	{"recover_ready_s", "s", "lower", 0.25},
	{"recover_fresh_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 for counts and rates).
	N int `json:"n,omitempty"`
}

type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// record is everything one run reports.
type record struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	WindowS    float64 `json:"window_s"`
	Segments   int     `json:"segments"`
	Crashes    int     `json:"crashes"`
	Vehicles   int     `json:"vehicles"`
	Fsync      string  `json:"fsync"`
	ServerArgs string  `json:"server_flags"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	ElapsedS   float64 `json:"elapsed_s"`

	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Phases    map[string]*phaseCount `json:"phases"`
	// Failures lists distinct failure reasons with their counts, so a
	// stale report or a late generator is reported, not hidden.
	Failures map[string]int `json:"failures,omitempty"`

	Metrics map[string]value  `json:"metrics"`
	Timings map[string]timing `json:"timings"`
	// Absent lists per-layer metrics whose source was missing (a
	// /metrics series that no longer exists, a failed probe). They are
	// reported as 0 and never fail a run.
	Absent []string `json:"absent,omitempty"`
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// newRecord fills the run's identity, the operation counts and the
// end-to-end metrics from its spans.
func (r *run) newRecord(spans []span, elapsed time.Duration) *record {
	rec := &record{
		Workload: r.spec.name, Why: r.spec.why, Seed: r.seed, Traced: r.trace,
		WindowS: r.window.Seconds(), Segments: r.spec.segments, Crashes: r.spec.crashes,
		Vehicles: r.spec.vehicles, Fsync: r.spec.fsync, ServerArgs: strings.Join(r.spec.flags, " "),
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(r.root), ElapsedS: elapsed.Seconds(),
		Correct: true,
		Phases:  map[string]*phaseCount{},
		Metrics: map[string]value{}, Timings: map[string]timing{},
	}
	for _, s := range spans {
		if !isOperation(s.Name) {
			continue
		}
		pc := rec.Phases[s.Phase]
		if pc == nil {
			pc = &phaseCount{}
			rec.Phases[s.Phase] = pc
		}
		pc.Attempted++
		rec.Attempted++
		if s.Failed == "" {
			pc.Succeeded++
			continue
		}
		pc.Failed++
		rec.Failed++
		if rec.Failures == nil {
			rec.Failures = map[string]int{}
		}
		rec.Failures[s.Name+": "+s.Failed]++
		if s.Name == spanCheck {
			rec.Correct = false
		}
	}
	r.endToEndMetrics(rec, spans)
	return rec
}

// set stores one metric under its contract name, with the unit the
// contract gives it.
func (rec *record) set(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			rec.Metrics[name] = value{Value: v, Unit: d.Unit, N: n}
		}
	}
}

// rateSlice is the length of the slices a closed-loop stream's
// throughput is taken over.
const rateSlice = 250 * time.Millisecond

// streamRate is completions per second of one stream over its planned
// stretches; count says how many completions a span stands for. A
// closed-loop stream's rate is the upper-quartile throughput of its
// rateSlice pieces: what the server sustains while nothing else — a
// build, a neighbour on the host — takes the CPU. A slower request path
// lowers every piece, interference only some. An open-loop stream completes what was offered, so its rate
// is everything it completed over the stretches, each extended to the
// last completion that was due in it: the rate only falls when the
// server stops keeping up.
func streamRate(spans []span, stretches []stretch, closedLoop bool, count func(span) int) float64 {
	var rates []float64
	total, elapsed := 0, time.Duration(0)
	for i, st := range stretches {
		slices := make([]int, int((st.to-st.from)/rateSlice))
		last := st.to
		for _, s := range spans {
			n := count(s)
			if n == 0 || s.Due < st.from || (i+1 < len(stretches) && s.Due >= stretches[i+1].from) {
				continue
			}
			total += n
			last = max(last, s.End)
			if j := int((s.End - st.from) / rateSlice); j < len(slices) {
				slices[j] += n
			}
		}
		elapsed += last - st.from
		for _, n := range slices {
			rates = append(rates, float64(n)/rateSlice.Seconds())
		}
	}
	if closedLoop {
		return percentile(sortedCopy(rates), 75)
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(total) / elapsed.Seconds()
}

func (r *run) endToEndMetrics(rec *record, spans []span) {
	var fresh, ack, read, ready, recovered []float64
	for _, s := range spans {
		switch {
		case s.Name == spanFresh:
			// A report that never became visible still counts: at the
			// timeout, so it misses every freshness limit.
			fresh = append(fresh, ms(s.latency()))
		case s.Failed != "":
		case s.Name == spanReport || s.Name == spanBulk:
			ack = append(ack, ms(s.latency()))
		case s.Name == spanRead:
			read = append(read, us(s.latency()))
		case s.Name == spanRecoverReady:
			ready = append(ready, s.latency().Seconds())
		case s.Name == spanRecoverFresh:
			recovered = append(recovered, s.latency().Seconds())
		}
	}
	set := func(name string, v float64, n int) { rec.set(endToEnd, name, v, n) }
	tm := func(name string, xs []float64) timing {
		t := summarise(xs)
		rec.Timings[name] = t
		return t
	}
	set("setup_s", median(r.setupSecs), len(r.setupSecs))
	f := tm("freshness_ms", fresh)
	set("freshness_p50_ms", f.P50, f.N)
	tm("ack_ms", ack)
	rd := tm("read_us", read)
	set("read_p50_us", rd.P50, rd.N)
	set("read_req_per_s", streamRate(spans, r.stretches[streamReads], r.spec.readClients > 0, func(s span) int {
		if s.Name == spanRead && s.Failed == "" {
			return 1
		}
		return 0
	}), 0)
	for name, door := range map[string]string{"ingest_reports_per_s": doorBinary, "ingest_json_reports_per_s": doorJSON} {
		set(name, streamRate(spans, r.stretches[door], r.spec.bulkClients > 0, func(s span) int {
			if (s.Name == spanBulk || s.Name == spanReport) && s.Door == door && s.Phase == phaseWindow && s.Failed == "" {
				return s.Reports
			}
			return 0
		}), 0)
	}
	set("recover_ready_s", median(ready), len(ready))
	set("recover_fresh_s", median(recovered), len(recovered))
	set("rss_peak_mb", median(r.bootRSS), len(r.bootRSS))
	tm("generator_late_ms", r.lateness)
}
