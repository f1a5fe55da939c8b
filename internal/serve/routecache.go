// Router-side read caching: the merged responses of fleet-wide routes
// are cached keyed by the *vector* of shard generations. Every request
// still validates against each shard — in-process shards by comparing
// the snapshot tag, remote shards via a conditional GET — so a cache
// hit costs one tag comparison per shard instead of a parse, merge,
// and re-encode of the whole fleet. When some shard's generation did
// move, the re-gather merges the shard payloads as pre-marshaled JSON
// fragments (ID-ordered concatenation, no decode/re-encode — the same
// raw-bytes discipline as the ingest router's wire-group splitting).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fleetRoute indexes the router's merged-response caches.
type fleetRoute int

const (
	routeFleetForecast fleetRoute = iota
	routeVehicles

	numFleetRoutes
)

func (fr fleetRoute) path() string {
	if fr == routeVehicles {
		return "/vehicles"
	}
	return "/fleet/forecast"
}

// fragment is one vehicle's pre-marshaled slice of a shard payload.
// raw aliases the shard's response bytes verbatim, so merging is
// concatenation, never re-encoding.
type fragment struct {
	id  string
	raw json.RawMessage
}

// shardFragments is one shard's parsed fleet-route payload at one
// generation. Immutable once built; the merge cache shares entries
// across gathers for shards that answer "unchanged".
type shardFragments struct {
	etag   string
	frags  []fragment
	errors map[string]json.RawMessage
}

// mergeCache holds one route's per-shard fragments of the last
// consistent gather: the tags the next gather validates each shard
// against, and the fragments an unchanged shard contributes to a
// re-merge. The merged body itself lives in Router.merged.
type mergeCache struct {
	mu     sync.Mutex
	shards map[string]*shardFragments
}

// fleetResponder is the in-process shortcut for fleet-wide routes:
// *serve.Server implements it, so the router reads a shard's cached
// whole-fleet bytes directly — no goroutine, no memWriter, no HTTP
// round trip — and skips re-parsing whenever the shard's tag hasn't
// moved. Remote backends go through a conditional GET instead.
type fleetResponder interface {
	FleetForecastResponse() (status int, etag string, body []byte)
	VehiclesResponse() (status int, etag string, body []byte)
}

// shardFetch is one shard's answer to a fleet-route fetch, normalized
// across the in-process and HTTP paths.
type shardFetch struct {
	status int
	etag   string
	gen    string
	body   []byte
	// unchanged means the shard validated the router's cached fragments
	// as current (HTTP 304, or an in-process tag match).
	unchanged bool
	err       error
}

// fetchFleetRoute fetches one shard's payload for a fleet-wide route,
// conditionally: haveTag is the entity tag of the fragments the router
// already holds for this shard, or "".
func (rt *Router) fetchFleetRoute(ctx context.Context, b *ShardBackend, route fleetRoute, haveTag string) shardFetch {
	if fr, ok := b.Handler.(fleetResponder); ok {
		t0 := time.Now()
		var status int
		var etag string
		var body []byte
		if route == routeVehicles {
			status, etag, body = fr.VehiclesResponse()
		} else {
			status, etag, body = fr.FleetForecastResponse()
		}
		rt.shardCall.With(b.Name).ObserveSince(t0)
		if status != http.StatusOK {
			return shardFetch{status: status, body: body}
		}
		if haveTag != "" && etag == haveTag {
			return shardFetch{status: status, etag: etag, unchanged: true}
		}
		// In-process responses cannot tear: tag and bytes come from one
		// snapshot pointer load.
		return shardFetch{status: status, etag: etag, gen: etag[1 : len(etag)-1], body: body}
	}
	var hdr http.Header
	if haveTag != "" {
		hdr = http.Header{"If-None-Match": []string{haveTag}}
	}
	resp := rt.call(ctx, b, http.MethodGet, route.path(), nil, hdr, rt.timeout)
	if resp.err != nil {
		return shardFetch{err: resp.err}
	}
	if resp.status == http.StatusNotModified {
		return shardFetch{status: http.StatusOK, etag: haveTag, unchanged: true}
	}
	return shardFetch{
		status: resp.status,
		etag:   resp.header.Get("ETag"),
		gen:    resp.header.Get(HeaderFleetGeneration),
		body:   resp.body,
	}
}

// parseShardFragments splits one shard's 200 payload into per-vehicle
// raw fragments. json.RawMessage preserves each element's exact source
// bytes, so the later merge is pure ID-ordered concatenation.
func parseShardFragments(route fleetRoute, etag string, body []byte) (*shardFragments, error) {
	sf := &shardFragments{etag: etag}
	if route == routeVehicles {
		var rows []json.RawMessage
		if err := jsonDecode(body, &rows); err != nil {
			return nil, err
		}
		sf.frags = make([]fragment, len(rows))
		for i, raw := range rows {
			var key struct {
				ID string `json:"id"`
			}
			if err := jsonDecode(raw, &key); err != nil {
				return nil, err
			}
			sf.frags[i] = fragment{id: key.ID, raw: raw}
		}
		return sf, nil
	}
	var part struct {
		Forecasts []json.RawMessage          `json:"forecasts"`
		Errors    map[string]json.RawMessage `json:"errors"`
	}
	if err := jsonDecode(body, &part); err != nil {
		return nil, err
	}
	sf.frags = make([]fragment, len(part.Forecasts))
	for i, raw := range part.Forecasts {
		var key struct {
			ID string `json:"vehicle_id"`
		}
		if err := jsonDecode(raw, &key); err != nil {
			return nil, err
		}
		sf.frags[i] = fragment{id: key.ID, raw: raw}
	}
	sf.errors = part.Errors
	return sf, nil
}

// mergeShardFragments concatenates the shards' pre-marshaled fragments
// into the fleet-wide body. Vehicles are disjoint across shards (ring
// ownership), so the merge is a sorted union; the shape and trailing
// newline match the single server's encoder exactly, keeping the
// byte-identity contract.
func mergeShardFragments(route fleetRoute, shards map[string]*shardFragments, order []string) []byte {
	total := 0
	for _, sf := range shards {
		total += len(sf.frags)
	}
	all := make([]fragment, 0, total)
	var errs map[string]json.RawMessage
	for _, name := range order {
		sf := shards[name]
		all = append(all, sf.frags...)
		for id, msg := range sf.errors {
			if errs == nil {
				errs = make(map[string]json.RawMessage)
			}
			errs[id] = msg
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	var buf bytes.Buffer
	if route == routeVehicles {
		buf.WriteByte('[')
		for i := range all {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(all[i].raw)
		}
		buf.WriteString("]\n")
		return buf.Bytes()
	}
	buf.WriteString(`{"forecasts":[`)
	for i := range all {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(all[i].raw)
	}
	buf.WriteByte(']')
	if len(errs) > 0 {
		// Marshal emits sorted keys and relays the raw (already
		// HTML-escaped, compact) error strings verbatim — byte-identical
		// to the single server's map encoding.
		eb, _ := json.Marshal(errs)
		buf.WriteString(`,"errors":`)
		buf.Write(eb)
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

// mergedETag derives the router's strong entity tag from the shard
// generation vector, so it changes iff some shard's generation
// changes.
func mergedETag(vector string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(vector))
	return `"m` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// gatherMerged returns the merged body and entity tag for one
// fleet-wide route, and the generation the caches derived from it key
// by: the merged tag, or "" for a torn gather. A shard that is
// mid-retrain can answer a plain GET with bytes from one generation
// and headers from another; the ETag/X-Fleet-Generation pair exposes
// that, and such a torn gather is served to the caller but its tag
// cannot vouch for its bytes — so neither the merged body nor anything
// derived from it (the router's decoded plan requests and plan bodies)
// is stored under it.
func (rt *Router) gatherMerged(ctx context.Context, route fleetRoute) (body []byte, etag, gen string, fail *fanoutError) {
	mc := &rt.merge[route]
	mc.mu.Lock()
	prevShards := mc.shards
	mc.mu.Unlock()

	fetches := make([]shardFetch, len(rt.backends))
	var wg sync.WaitGroup
	for i := range rt.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &rt.backends[i]
			var haveTag string
			if sf := prevShards[b.Name]; sf != nil {
				haveTag = sf.etag
			}
			fetches[i] = rt.fetchFleetRoute(ctx, b, route, haveTag)
		}(i)
	}
	wg.Wait()

	shards := make(map[string]*shardFragments, len(rt.backends))
	consistent := true
	var fe fanoutError
	for i := range rt.backends {
		name := rt.backends[i].Name
		f := &fetches[i]
		switch {
		case f.err != nil:
			fe.add(name, f.err.Error())
		case f.status != http.StatusOK:
			fe.add(name, fmt.Sprintf("status %d: %s", f.status, strings.TrimSpace(string(f.body))))
		case f.unchanged:
			rt.shardNotModified.Add(1)
			shards[name] = prevShards[name]
		default:
			if f.etag == "" || f.gen == "" || f.etag != `"`+f.gen+`"` {
				consistent = false
			}
			sf, err := parseShardFragments(route, f.etag, f.body)
			if err != nil {
				fe.add(name, err.Error())
				continue
			}
			shards[name] = sf
		}
	}
	if len(fe.Shards) > 0 {
		return nil, "", "", &fe
	}

	var vb strings.Builder
	for i := range rt.backends {
		name := rt.backends[i].Name
		vb.WriteString(name)
		vb.WriteByte('=')
		vb.WriteString(shards[name].etag)
		vb.WriteByte(';')
	}
	vector := vb.String()

	if etag, body, ok := rt.merged.get(vector, route.path()); ok {
		return body, etag, etag, nil
	}
	order := make([]string, len(rt.backends))
	for i := range rt.backends {
		order[i] = rt.backends[i].Name
	}
	body = mergeShardFragments(route, shards, order)
	etag = mergedETag(vector)
	if !consistent {
		rt.mergeTorn.Add(1)
		return body, etag, "", nil
	}
	etag, body = rt.merged.put(vector, route.path(), etag, body)
	mc.mu.Lock()
	mc.shards = shards
	mc.mu.Unlock()
	return body, etag, etag, nil
}
