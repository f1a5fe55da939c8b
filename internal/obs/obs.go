// Package obs is the observability substrate shared by every layer of
// the fleet system: lock-free counters and fixed-bucket histograms with
// a Prometheus text exposition, request-scoped trace IDs propagated via
// context.Context and the X-Fleet-Trace header, structured-logging
// helpers on log/slog, runtime (goroutine/GC/heap) metrics, and opt-in
// net/http/pprof mounting.
//
// Design constraints, in order:
//
//  1. The record path allocates nothing. Observe/Add are a handful of
//     atomic operations on pre-sized arrays — they are safe to call
//     from the pinned 0 allocs/op forecast fast path and from the WAL
//     append critical section. Label resolution (Family.With) happens
//     once at wiring time, returning a child pointer the hot path
//     holds; a warm With is itself allocation-free (read-lock + map
//     read) for callers that must resolve dynamically.
//  2. No global registry. Each component owns its metric families and
//     writes them into a TextWriter at scrape time; the /metrics
//     handler assembles the exposition from the components it can
//     reach. That keeps in-process sharding honest — every shard
//     server renders exactly its own state, and the cluster router
//     relabels per shard.
//  3. Standard library only.
package obs

import (
	"sort"
	"strconv"
	"strings"
)

// Metric kinds, as the # TYPE comment spells them.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// TextWriter assembles a Prometheus text exposition
// (text/plain; version=0.0.4). It tracks which metric names already
// carry # HELP/# TYPE comments so a family is described exactly once
// no matter how many components contribute samples to it.
type TextWriter struct {
	b    strings.Builder
	meta map[string]bool
}

// Meta writes the # HELP and # TYPE comments for name once; later
// calls for the same name are no-ops.
func (w *TextWriter) Meta(name, help, kind string) {
	if w.meta == nil {
		w.meta = make(map[string]bool)
	}
	if w.meta[name] {
		return
	}
	w.meta[name] = true
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(help)
	w.b.WriteString("\n# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(kind)
	w.b.WriteByte('\n')
}

// DescribedNames returns the metric names Meta has run for, sorted —
// the router seeds its shard-relabeling dedup set from these so a
// metric the router already described is not re-described by a relayed
// shard exposition.
func (w *TextWriter) DescribedNames() []string {
	names := make([]string, 0, len(w.meta))
	for n := range w.meta {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sample writes one `name{labels} value` line. labels is the
// pre-rendered `k="v",k2="v2"` interior (empty for a bare sample).
func (w *TextWriter) Sample(name, labels string, value float64) {
	w.writeSeries(name, labels)
	w.b.WriteString(formatFloat(value))
	w.b.WriteByte('\n')
}

// SampleUint is Sample for integral values (exact, no float
// round-trip).
func (w *TextWriter) SampleUint(name, labels string, value uint64) {
	w.writeSeries(name, labels)
	w.b.WriteString(strconv.FormatUint(value, 10))
	w.b.WriteByte('\n')
}

// SampleInt is Sample for signed integral values.
func (w *TextWriter) SampleInt(name, labels string, value int64) {
	w.writeSeries(name, labels)
	w.b.WriteString(strconv.FormatInt(value, 10))
	w.b.WriteByte('\n')
}

func (w *TextWriter) writeSeries(name, labels string) {
	w.b.WriteString(name)
	if labels != "" {
		w.b.WriteByte('{')
		w.b.WriteString(labels)
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
}

// Gauge writes a described bare gauge sample in one call.
func (w *TextWriter) Gauge(name, help string, value float64) {
	w.Meta(name, help, KindGauge)
	w.Sample(name, "", value)
}

// GaugeUint is Gauge for integral values.
func (w *TextWriter) GaugeUint(name, help string, value uint64) {
	w.Meta(name, help, KindGauge)
	w.SampleUint(name, "", value)
}

// GaugeInt is Gauge for signed integral values.
func (w *TextWriter) GaugeInt(name, help string, value int64) {
	w.Meta(name, help, KindGauge)
	w.SampleInt(name, "", value)
}

// GaugeBool is Gauge for 0/1 flags.
func (w *TextWriter) GaugeBool(name, help string, value bool) {
	v := int64(0)
	if value {
		v = 1
	}
	w.Meta(name, help, KindGauge)
	w.SampleInt(name, "", v)
}

// CounterUint writes a described bare counter sample in one call.
func (w *TextWriter) CounterUint(name, help string, value uint64) {
	w.Meta(name, help, KindCounter)
	w.SampleUint(name, "", value)
}

// Raw appends pre-rendered exposition text verbatim (the router's
// relabeled shard scrapes).
func (w *TextWriter) Raw(text string) { w.b.WriteString(text) }

// String returns the exposition assembled so far.
func (w *TextWriter) String() string { return w.b.String() }

// Histogram writes one histogram's full exposition: HELP/TYPE once,
// cumulative `_bucket` series with `le` labels, then `_sum` and
// `_count`. labels is the pre-rendered extra label interior (may be
// empty).
func (w *TextWriter) Histogram(name, help, labels string, h *Histogram) {
	w.Meta(name, help, KindHistogram)
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		w.SampleUint(name+"_bucket", joinLabels(labels, `le="`+formatFloat(bound)+`"`), cum)
	}
	w.SampleUint(name+"_bucket", joinLabels(labels, `le="+Inf"`), h.Count())
	w.Sample(name+"_sum", labels, h.Sum())
	w.SampleUint(name+"_count", labels, h.Count())
}

// joinLabels joins two pre-rendered label interiors.
func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "," + b
}

// RenderLabels renders alternating key/value pairs into a label
// interior, escaping values per the exposition format.
func RenderLabels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sortedStrings returns a sorted copy (export helpers need
// deterministic child order when children were created dynamically).
func sortedStrings(in []string) []string {
	out := make([]string, len(in))
	copy(out, in)
	sort.Strings(out)
	return out
}
