package tree

import (
	"math"
	"sync"
	"time"
)

// The histogram engine's parent−sibling subtraction path (LightGBM's
// classic trick): a node's histogram is materialized once in a flat
// per-fit slab; after the node splits, only the smaller child's slab is
// filled by scanning its rows, and the larger child's histogram is
// derived cell-by-cell as parent − sibling, in place in the parent's
// slab. Fill work per level drops from all rows to the smaller halves.
//
// Exactness: per-bin counts are integer multiplicities (exact in
// float64), so node sizes, occupancy and min-leaf guards under
// subtraction match direct fills bit for bit. Derived *sums* can drift
// from a direct fill in the last ulps (float subtraction does not undo
// an interleaved accumulation), which is why the gates below are pure
// functions of segment sizes and config — results are deterministic,
// and nodes below the gate fall back to the direct per-candidate fill
// path unchanged. Leaf values
// never come from histograms (nodeStats row scans), so predictions of
// direct-path trees are byte-identical to the pre-subtraction engine.
var (
	// histSlabMinRows is the root segment size at which a fit engages
	// the slab engine at all; smaller fits keep the zero-setup
	// per-candidate fill path (and stay bit-identical to it).
	histSlabMinRows = 1024
	// histSubtractMinRows is the larger-child segment size worth
	// deriving by subtraction: below it, refilling from rows is cheaper
	// than walking the parent's envelope, and the subtree falls back to
	// the direct path. Tests move this gate to force or forbid
	// subtraction everywhere.
	histSubtractMinRows = 512
	// histStatsTimingMinRows gates the fill/subtract wall-clock
	// sampling: the clock is only read around work on segments big
	// enough to dwarf the read.
	histStatsTimingMinRows = 2048
)

// histSlab is one node's materialized histogram: per-bin weighted
// target sums and weights for every feature, flat at the binned
// layout's Start offsets, plus each feature's occupied bin envelope
// ([lo,hi]; lo > hi marks an empty feature). Slabs are pooled per
// builder and zeroed on release (envelope spans only), so steady-state
// node work allocates nothing and at most O(depth) slabs are live.
type histSlab struct {
	sum []float64
	cnt []float64
	lo  []int32
	hi  []int32
}

// slabRecycler keeps released slabs alive across fits, so a fleet
// retraining thousands of same-shaped models (or a forest's worth of
// trees) reallocates slab memory only after a GC cycle drains the pool.
// Every slab put here satisfies the release invariant — all cells in
// [0, cap) zero, every envelope (1, 0) — which holds inductively across
// reslicing: cells beyond a smaller fit's length were zeroed under the
// larger length they were last dirtied at. Recycled slabs are therefore
// indistinguishable from fresh allocations and cannot perturb results.
var slabRecycler sync.Pool

// recycledSlab pops a cross-fit pooled slab and reshapes it to this
// fit's binned layout, or returns nil (pool empty, or the pooled slab's
// backing arrays are too small — dropped for the GC rather than grown).
func recycledSlab(total, p int) *histSlab {
	v := slabRecycler.Get()
	if v == nil {
		return nil
	}
	s := v.(*histSlab)
	if cap(s.sum) < total || cap(s.lo) < p {
		return nil
	}
	s.sum = s.sum[:total]
	s.cnt = s.cnt[:total]
	s.lo = s.lo[:p]
	s.hi = s.hi[:p]
	return s
}

// recycleSlabs hands the builder's free list to the cross-fit pool;
// called once per fit after the last node releases its slab.
func (b *histBuilder) recycleSlabs() {
	for _, s := range b.slabFree {
		slabRecycler.Put(s)
	}
	b.slabFree = nil
}

// acquireSlab pops a zeroed slab from the pool or allocates one.
func (b *histBuilder) acquireSlab() *histSlab {
	if n := len(b.slabFree); n > 0 {
		s := b.slabFree[n-1]
		b.slabFree = b.slabFree[:n-1]
		return s
	}
	p := len(b.feats)
	if s := recycledSlab(b.bn.Total, p); s != nil {
		return s
	}
	s := &histSlab{
		sum: make([]float64, b.bn.Total),
		cnt: make([]float64, b.bn.Total),
		lo:  make([]int32, p),
		hi:  make([]int32, p),
	}
	for f := range s.lo {
		s.lo[f], s.hi[f] = 1, 0
	}
	return s
}

// releaseSlab zeroes the slab's occupied envelopes and returns it to
// the pool. nil is allowed (nodes on the direct path carry no slab).
func (b *histBuilder) releaseSlab(s *histSlab) {
	if s == nil {
		return
	}
	for f := range s.lo {
		if s.lo[f] > s.hi[f] {
			continue
		}
		start := b.bn.Start[f]
		for i := start + int(s.lo[f]); i <= start+int(s.hi[f]); i++ {
			s.sum[i] = 0
			s.cnt[i] = 0
		}
		s.lo[f], s.hi[f] = 1, 0
	}
	b.slabFree = append(b.slabFree, s)
}

// fillSlab directly fills the slab over segment [lo, hi): every
// feature's histogram in one pass each, in segment row order — the
// exact accumulation sequence the per-candidate direct path produces.
func (b *histBuilder) fillSlab(s *histSlab, lo, hi int) {
	rows := hi - lo
	timed := rows >= histStatsTimingMinRows
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	p := len(b.feats)
	for f := 0; f < p; f++ {
		b.fillSlabFeature(s, f, lo, hi)
	}
	b.stats.FillRows += uint64(rows) * uint64(p)
	b.stats.DirectNodes++
	for f := 0; f < p; f++ {
		if s.lo[f] <= s.hi[f] {
			b.stats.FillCells += uint64(s.hi[f]-s.lo[f]) + 1
		}
	}
	if timed {
		b.stats.FillNanos += uint64(time.Since(t0))
	}
}

// fillSlabFeature accumulates one feature's histogram over the segment
// and records its occupied envelope. b.idx holds only rows with
// positive weight (zero-weight rows are compacted at fit start), so no
// weight guard is needed in the hot loop.
func (b *histBuilder) fillSlabFeature(s *histSlab, f, lo, hi int) {
	start := b.bn.Start[f]
	nb := b.bn.FeatureBins(f)
	sum := s.sum[start : start+nb : start+nb]
	cnt := s.cnt[start : start+nb : start+nb]
	codes := b.bins[f]
	cmin, cmax := nb, -1
	seg := b.idx[lo:hi]
	if b.w == nil {
		for _, i := range seg {
			c := int(codes[i])
			sum[c] += b.y[i]
			cnt[c]++
			if c < cmin {
				cmin = c
			}
			if c > cmax {
				cmax = c
			}
		}
	} else {
		for _, i := range seg {
			wi := b.w[i]
			c := int(codes[i])
			sum[c] += wi * b.y[i]
			cnt[c] += wi
			if c < cmin {
				cmin = c
			}
			if c > cmax {
				cmax = c
			}
		}
	}
	s.lo[f], s.hi[f] = int32(cmin), int32(cmax)
}

// deriveSlab turns the parent's slab into the larger child's histogram
// by subtracting the (directly filled) smaller sibling, walking each
// feature's parent envelope. Counts subtract exactly (integer
// multiplicities); a cell whose derived count is zero has its sum
// zeroed explicitly, which both keeps the release-time zero invariant
// and makes empty cells bit-identical to a direct fill's.
func (b *histBuilder) deriveSlab(parent, small *histSlab, timed bool) {
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var cells uint64
	for f := range parent.lo {
		pl, ph := int(parent.lo[f]), int(parent.hi[f])
		if pl > ph {
			continue
		}
		cells += uint64(ph-pl) + 1
		start := b.bn.Start[f]
		elo, ehi := -1, -1
		for c := pl; c <= ph; c++ {
			i := start + c
			pc := parent.cnt[i] - small.cnt[i]
			parent.cnt[i] = pc
			if pc == 0 {
				parent.sum[i] = 0
				continue
			}
			parent.sum[i] -= small.sum[i]
			if elo < 0 {
				elo = c
			}
			ehi = c
		}
		if elo < 0 {
			parent.lo[f], parent.hi[f] = 1, 0
		} else {
			parent.lo[f], parent.hi[f] = int32(elo), int32(ehi)
		}
	}
	b.stats.SubtractCells += cells
	b.stats.DerivedNodes++
	if timed {
		b.stats.SubtractNanos += uint64(time.Since(t0))
	}
}

// childSlabs decides, after a slab node's split, how each child gets
// its histogram: the smaller child by direct fill, the larger derived
// as parent − sibling (consuming the parent's slab), with children
// that cannot split (depth or MinSamplesSplit) skipped and segments
// below the subtraction gate dropped to the direct per-candidate path
// (nil slab). The decision depends only on segment sizes, weights and config.
func (b *histBuilder) childSlabs(s *histSlab, lo, mid, hi, depth int, cl, cr float64) (ls, rs *histSlab) {
	depthOK := b.cfg.MaxDepth == 0 || depth+1 < b.cfg.MaxDepth
	minSplit := float64(b.cfg.MinSamplesSplit)
	expandL := depthOK && !(cl < minSplit)
	expandR := depthOK && !(cr < minSplit)
	if !expandL && !expandR {
		b.releaseSlab(s)
		return nil, nil
	}
	// The left child is "small" on ties, so the recursion order and the
	// derivation target are fixed by sizes alone.
	smallLo, smallHi, largeRows := lo, mid, hi-mid
	expandSmall, expandLarge := expandL, expandR
	leftSmall := mid-lo <= hi-mid
	if !leftSmall {
		smallLo, smallHi, largeRows = mid, hi, mid-lo
		expandSmall, expandLarge = expandR, expandL
	}
	switch {
	case expandLarge && largeRows >= histSubtractMinRows:
		small := b.acquireSlab()
		b.fillSlab(small, smallLo, smallHi)
		b.deriveSlab(s, small, largeRows >= histStatsTimingMinRows)
		if !expandSmall {
			b.releaseSlab(small)
			small = nil
		}
		if leftSmall {
			return small, s
		}
		return s, small
	case expandSmall && smallHi-smallLo >= histSubtractMinRows:
		// Only the smaller child can split, and it is big enough to
		// stay on the slab path: fill it directly, drop the parent.
		small := b.acquireSlab()
		b.fillSlab(small, smallLo, smallHi)
		b.releaseSlab(s)
		if leftSmall {
			return small, nil
		}
		return nil, small
	default:
		b.releaseSlab(s)
		return nil, nil
	}
}

// bestSplitSlab sweeps the node's materialized histogram for the best
// boundary — no refilling, the fill (direct or derived) already
// happened. Candidates are always all features here: the slab engine
// only engages without MaxFeatures subsampling. Sweep order, gain
// arithmetic and the strict-> floor are identical to the direct path's
// scanFeature, so a directly-filled slab node chooses the exact same split.
func (b *histBuilder) bestSplitSlab(s *histSlab, total, count float64) (feature int, bin uint8, improvement, nlBest float64, ok bool) {
	parentScore := total * total / count
	bestGain := parentScore + 1e-9*(1+math.Abs(parentScore))
	for _, f := range b.feats {
		if g, c, nl, hit := b.sweepSlabFeature(s, f, total, count, bestGain); hit {
			bestGain, feature, bin, nlBest, ok = g, f, c, nl, true
		}
	}
	if ok {
		improvement = bestGain - parentScore
	}
	return feature, bin, improvement, nlBest, ok
}

// sweepSlabFeature runs the cumulative gain sweep over one feature's
// occupied envelope in the slab — ascending bins, empty cells skipped,
// the same accumulation sequence as the direct path's mask sweep. The
// slab is read-only: it must survive for the children's derivation.
func (b *histBuilder) sweepSlabFeature(s *histSlab, f int, total, count, floor float64) (gain float64, bin uint8, nlBest float64, hit bool) {
	bestGain := floor
	elo, ehi := int(s.lo[f]), int(s.hi[f])
	if elo > ehi {
		return bestGain, 0, 0, false
	}
	start := b.bn.Start[f]
	b.stats.SweepCells += uint64(ehi-elo) + 1
	var sumL, nl float64
	prev := -1
	for c := elo; c <= ehi; c++ {
		cn := s.cnt[start+c]
		if cn == 0 {
			continue
		}
		if prev >= 0 && nl >= b.minLeaf && count-nl >= b.minLeaf {
			sumR := total - sumL
			g := sumL*sumL/nl + sumR*sumR/(count-nl)
			if g > bestGain {
				bestGain = g
				bin = uint8(prev)
				nlBest = nl
				hit = true
			}
		}
		sumL += s.sum[start+c]
		nl += cn
		prev = c
	}
	return bestGain, bin, nlBest, hit
}
