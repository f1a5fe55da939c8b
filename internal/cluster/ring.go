// Package cluster is the serving cluster: the consistent-hash Ring and
// the Sharded engine group partition the fleet across N engine shards
// (ring.go, sharded.go) so training and snapshot memory scale
// horizontally, and the donor exchange (donor.go) gives every shard the
// fleet-wide donor pool. The HTTP fan-out router over the shards lives
// in internal/serve.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// fnvHash is stdlib FNV-1a (64-bit), the repo-wide platform-stable
// hash. The ring hashes vehicle IDs with it so ownership is a pure
// function of (shard names, vehicle ID) — every process that knows the
// membership computes the same owner with no coordination.
func fnvHash(parts ...string) uint64 {
	h := fnv.New64a()
	for _, s := range parts {
		_, _ = h.Write([]byte(s))
		// Separator byte so ("ab","c") and ("a","bc") differ.
		_, _ = h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// DefaultReplicas is the virtual-node count per shard. 128 points per
// shard keeps the largest/smallest partition within a few percent of
// each other for realistic shard counts while the ring stays tiny
// (simple FNV point placement; raise it for tighter balance).
const DefaultReplicas = 128

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring partitioning vehicle IDs across named
// shards. Each shard contributes `replicas` virtual nodes; a key is
// owned by the shard of the first virtual node clockwise from the
// key's hash. Adding or removing one shard therefore moves only the
// keys in the arcs that shard's virtual nodes cover — about K/N of
// them — instead of reshuffling the whole fleet (the property the
// rebalancing test pins).
//
// All methods are safe for concurrent use; ownership lookups take a
// read lock and never block each other.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []point // sorted by (hash, shard)
	shards   map[string]bool
}

// NewRing returns an empty ring; replicas <= 0 selects DefaultReplicas.
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, shards: make(map[string]bool)}
}

// NewRingOf builds a ring over the given shard names.
func NewRingOf(replicas int, shards ...string) (*Ring, error) {
	r := NewRing(replicas)
	for _, s := range shards {
		if err := r.Add(s); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add joins a shard to the ring.
func (r *Ring) Add(shard string) error {
	if shard == "" {
		return fmt.Errorf("cluster: empty shard name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shards[shard] {
		return fmt.Errorf("cluster: shard %q already on the ring", shard)
	}
	r.shards[shard] = true
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hash: fnvHash(shard, strconv.Itoa(i)), shard: shard})
	}
	// Tie-break equal hashes by shard name so the ring is identical no
	// matter in which order the shards joined.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return nil
}

// Remove leaves a shard from the ring; its keys redistribute to the
// clockwise successors of its virtual nodes.
func (r *Ring) Remove(shard string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.shards[shard] {
		return fmt.Errorf("cluster: shard %q not on the ring", shard)
	}
	delete(r.shards, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Owner returns the shard owning the given key (vehicle ID), or "" on
// an empty ring.
func (r *Ring) Owner(key string) string {
	return r.ownerOf(fnvHashBytes(nil, key))
}

// OwnerBytes is Owner for a byte-slice key without the string
// conversion — the telemetry router's binary split path asks once per
// wire group, on slices aliasing the request body.
func (r *Ring) OwnerBytes(key []byte) string {
	return r.ownerOf(fnvHashBytes(key, ""))
}

// fnvHashBytes computes fnvHash over one key given as bytes or string
// (exactly one of the two is used), allocation-free.
func fnvHashBytes(b []byte, s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= 0xff // the fnvHash part separator
	h *= prime64
	return h
}

func (r *Ring) ownerOf(h uint64) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise from the top of the ring
	}
	return r.points[i].shard
}

// Shards lists the ring membership, sorted.
func (r *Ring) Shards() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.shards))
	for s := range r.shards {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Size reports the number of shards on the ring.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}
