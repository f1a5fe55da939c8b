// The read path's one cache and one conditional-GET writer. Every
// cached response body — per vehicle, whole fleet, plan, and at the
// cluster router the merged fleet bodies, decoded plan requests and
// plan bodies — lives in a genCache keyed by the generation it was
// built from: the single server's snapshot GenerationID, or at the
// router the vector of shard generations and the merged tag hashed
// from it (routecache.go). Every 200
// a data route writes itself goes through writeCached, which sets the
// strong ETag and the X-Fleet-Generation echo and answers If-None-Match
// with an empty 304; the router's relay to a remote owner shard
// forwards that shard's answer as it is.
package serve

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// HeaderFleetGeneration is the response header data routes echo their
// snapshot generation identifier on (the unquoted ETag value). The
// cluster router keys its merged-response cache by the vector of these
// across shards.
const HeaderFleetGeneration = "X-Fleet-Generation"

const noSnapshotMsg = "no model snapshot yet; initial training in progress"

// maxPlanEntries bounds each plan cache. Plan query parameters are
// client-controlled cache keys, so an unbounded table would let a
// scanning client grow memory without limit; past the bound plans are
// built per request, uncached.
const maxPlanEntries = 128

// genCache holds the entries of exactly one generation: (gen, key) →
// (etag, V). A get under any other generation misses; a put under
// another generation drops the old table and starts a new one, so
// stale bytes never outlive their generation. The first store of a key
// wins: concurrent builders derive the same value from the same
// generation, so the losers' copies are dropped and every caller gets
// the one canonical value. The empty generation is uncacheable — a torn
// router gather has no trustworthy generation — so get and put under
// it bypass the cache and count nothing.
type genCache[V any] struct {
	name, what string
	// limit bounds the entries of one generation; 0 means unbounded.
	limit        int64
	cur          atomic.Pointer[genTable[V]]
	hits, misses atomic.Uint64
}

// genTable is one generation's entries. The empty key — the one body
// of a whole-fleet cache — sits in an atomic slot, so the hottest
// fleet-wide read is a pointer load rather than a map lookup.
type genTable[V any] struct {
	gen string
	n   atomic.Int64 // keyed entries, counted only for a bounded cache
	one atomic.Pointer[genEntry[V]]
	m   sync.Map // non-empty key → *genEntry[V]
}

type genEntry[V any] struct {
	etag string
	v    V
}

func (t *genTable[V]) load(key string) *genEntry[V] {
	if key == "" {
		return t.one.Load()
	}
	if e, ok := t.m.Load(key); ok {
		return e.(*genEntry[V])
	}
	return nil
}

// newGenCache names a cache after its /metrics series (<name>_hits,
// <name>_misses); what describes one entry for the series help.
func newGenCache[V any](name, what string, limit int64) *genCache[V] {
	return &genCache[V]{name: name, what: what, limit: limit}
}

// get returns the entry stored for key under gen, counting a hit or a
// miss.
func (c *genCache[V]) get(gen, key string) (etag string, v V, ok bool) {
	if gen == "" {
		return "", v, false
	}
	if t := c.cur.Load(); t != nil && t.gen == gen {
		if e := t.load(key); e != nil {
			c.hits.Add(1)
			return e.etag, e.v, true
		}
	}
	c.misses.Add(1)
	return "", v, false
}

// put stores (etag, v) for key under gen unless an entry is already
// there, and returns the canonical entry. Past the bound new keys are
// not stored; the caller serves what it built.
func (c *genCache[V]) put(gen, key, etag string, v V) (string, V) {
	if gen == "" {
		return etag, v
	}
	t := c.cur.Load()
	for t == nil || t.gen != gen {
		nt := &genTable[V]{gen: gen}
		if c.cur.CompareAndSwap(t, nt) {
			t = nt
			break
		}
		t = c.cur.Load()
	}
	e := &genEntry[V]{etag: etag, v: v}
	switch {
	case key == "":
		t.one.CompareAndSwap(nil, e)
		e = t.one.Load()
	case c.limit > 0 && t.n.Add(1) > c.limit:
		t.n.Add(-1)
		if held := t.load(key); held != nil {
			e = held
		}
	default:
		got, loaded := t.m.LoadOrStore(key, e)
		if loaded && c.limit > 0 {
			t.n.Add(-1)
		}
		e = got.(*genEntry[V])
	}
	return e.etag, e.v
}

// writeMetrics writes the cache's hit and miss counters.
func (c *genCache[V]) writeMetrics(m *obs.TextWriter) {
	m.CounterUint(c.name+"_hits", c.what+" served from the generation-keyed cache.", c.hits.Load())
	m.CounterUint(c.name+"_misses", c.what+" looked up and not found in the generation-keyed cache.", c.misses.Load())
}

// etagMatch reports whether an If-None-Match header matches the given
// strong entity tag. Weak-prefixed tags compare equal — RFC 7232 weak
// comparison is what If-None-Match uses — and "*" matches any current
// representation.
func etagMatch(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for len(header) > 0 {
		tok := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			tok, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		tok = strings.TrimSpace(tok)
		tok = strings.TrimPrefix(tok, "W/")
		if tok == etag {
			return true
		}
	}
	return false
}

// writeCached writes one 200 data response: strong ETag, the
// generation echo (X-Fleet-Generation), and the If-None-Match
// short-circuit — a client holding the current tag gets an empty 304,
// counted in notModified, instead of the body. It is the one place the
// serving layer answers 304.
func writeCached(w http.ResponseWriter, r *http.Request, notModified *atomic.Uint64, gen, etag string, body []byte) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set(HeaderFleetGeneration, gen)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// writeBody writes pre-marshaled JSON bytes with a status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// buildFleetForecastBody marshals the GET /fleet/forecast body exactly
// as a fresh per-request marshal would, so cached bytes are
// indistinguishable on the wire.
func buildFleetForecastBody(snap *engine.Snapshot) []byte {
	out := FleetForecastJSON{Forecasts: make([]ForecastJSON, len(snap.Forecasts))}
	for i, f := range snap.Forecasts {
		out.Forecasts[i] = toJSON(f)
	}
	if len(snap.ForecastErrors) > 0 {
		out.Errors = snap.ForecastErrors
	}
	return encodeJSON(out)
}

// buildVehiclesBody marshals the GET /vehicles body.
func buildVehiclesBody(snap *engine.Snapshot) []byte {
	out := make([]VehicleInfo, 0, len(snap.Statuses))
	for _, st := range snap.Statuses {
		out = append(out, VehicleInfo{
			ID:       st.ID,
			Category: st.Category.String(),
			Strategy: st.Strategy,
			Model:    string(st.Algorithm),
			Error:    st.Err,
		})
	}
	return encodeJSON(out)
}

// FleetForecastResponse resolves GET /fleet/forecast to its status,
// entity tag, and body without touching an http.ResponseWriter. The
// body is built once per snapshot generation and then served as cached
// bytes — the warm path is a cache lookup, zero allocations. The
// cluster router calls this directly for in-process shards. The
// returned bytes are shared — callers must write, not mutate, them.
func (s *Server) FleetForecastResponse() (status int, etag string, body []byte) {
	return s.wholeFleetResponse(s.fleetForecast, buildFleetForecastBody)
}

// VehiclesResponse is FleetForecastResponse for GET /vehicles.
func (s *Server) VehiclesResponse() (status int, etag string, body []byte) {
	return s.wholeFleetResponse(s.vehicles, buildVehiclesBody)
}

func (s *Server) wholeFleetResponse(c *genCache[[]byte], build func(*engine.Snapshot) []byte) (int, string, []byte) {
	snap := s.engine.Snapshot()
	if snap == nil {
		return http.StatusServiceUnavailable, "", encodeJSON(map[string]string{"error": noSnapshotMsg})
	}
	gen := snap.GenerationID()
	if etag, b, ok := c.get(gen, ""); ok {
		return http.StatusOK, etag, b
	}
	etag, b := c.put(gen, "", snap.ETag(), build(snap))
	return http.StatusOK, etag, b
}

// planParams are the /fleet/plan query parameters.
type planParams struct {
	capacity, horizon, maxLead int
}

func parsePlanParams(r *http.Request) (planParams, error) {
	var p planParams
	var err error
	if p.capacity, err = intQuery(r, "capacity", 2); err != nil {
		return p, err
	}
	if p.horizon, err = intQuery(r, "horizon", 365); err != nil {
		return p, err
	}
	if p.maxLead, err = intQuery(r, "maxlead", 7); err != nil {
		return p, err
	}
	return p, nil
}

// cacheKey folds the scheduling day and every query parameter into the
// plan cache key; the generation is the cache's other key dimension
// (the snapshot generation, or at the router the merged tag).
func (p planParams) cacheKey(day string) string {
	return day + "|" + strconv.Itoa(p.capacity) + "|" + strconv.Itoa(p.horizon) + "|" + strconv.Itoa(p.maxLead)
}

// planETag extends a base entity tag (snapshot or merged-router tag)
// with the plan cache key: a plan response also varies with the
// scheduling day and parameters, so they join the validator.
func planETag(base, key string) string {
	return base[:len(base)-1] + "|" + key + `"`
}

// planDay returns the scheduling day every plan request on the same
// UTC day shares — hoisted out of the scheduler call so it can key the
// plan cache.
func planDay() (time.Time, string) {
	now := time.Now().UTC().Truncate(24 * time.Hour)
	return now, now.Format("2006-01-02")
}

// buildPlanBody schedules and marshals the PlanJSON — the one
// /fleet/plan implementation, shared by the single server (requests
// from its snapshot) and the cluster router (requests decoded from the
// merged fleet forecast; a plan is a fleet-global optimization, so
// per-shard plans cannot merge). Vehicles in forecastErrors are listed
// unscheduled so a plan never silently drops a vehicle.
func buildPlanBody(reqs []sched.Request, forecastErrors map[string]string, p planParams, now time.Time) ([]byte, error) {
	plan, err := sched.Schedule(reqs, sched.Config{Capacity: p.capacity, Start: now, Horizon: p.horizon, MaxLead: p.maxLead})
	if err != nil {
		return nil, err
	}
	out := PlanJSON{Unscheduled: plan.Unschedulable}
	for _, id := range sortedKeys(forecastErrors) {
		out.Unscheduled = append(out.Unscheduled, id)
	}
	for _, a := range plan.Assignments {
		out.Assignments = append(out.Assignments, AssignmentJSON{
			VehicleID: a.VehicleID,
			Day:       a.Day.Format("2006-01-02"),
			LeadDays:  a.LeadDays,
		})
	}
	return encodeJSON(out), nil
}
