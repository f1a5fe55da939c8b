package tree

import (
	"math"
	"math/bits"

	"repro/internal/ml"
	"repro/internal/rng"
)

// histBuilder is the opt-in approximate split engine: features are
// quantile-binned once per matrix (≤256 uint8 buckets) and node scans
// accumulate per-bin weighted sums, then sweep the cumulative sums for
// the best boundary. A 256-bit occupancy mask makes both the sweep and
// the reset proportional to the bins actually present in the node, so
// expanding a node costs O(F·(n_node + bins_present)).
//
// Split thresholds are recorded in raw feature space (the upper edge of
// the winning bin), so prediction needs no binning and behaves exactly
// like an exact tree's.
//
// Large fits without feature subsampling run on the slab engine on top
// (slab.go): each node's histogram is materialized once in a pooled
// flat slab, children derive as parent − sibling, and only the smaller
// child is ever refilled from rows. Small fits, small subtrees and
// MaxFeatures-sampled fits keep this file's direct per-candidate path.
type histBuilder struct {
	bn    *ml.Binned
	bins  [][]uint8
	edges [][]float64
	y     []float64
	w     []float64 // nil = every row once
	cfg   Config
	rnd   *rng.Source

	feats   []int
	nodes   []node
	minLeaf float64

	// slabFree pools this fit's histogram slabs; stats tallies
	// fill/subtract/sweep work, merged into the package counters once
	// per fit.
	slabFree []*histSlab
	stats    ml.HistStats

	gains []float64 // per-feature importance, summed in DFS split order

	idx     []int32
	scratch []int32

	hs histState
}

// histState is the direct path's histogram accumulator: per-bin
// weighted sums and counts plus the 256-bit occupancy mask. Each
// feature scan fills it and leaves it zeroed.
type histState struct {
	sum  [256]float64
	cnt  [256]float64
	mask [4]uint64
}

// fitHist grows the tree with the histogram engine and installs it.
func (m *Model) fitHist(cm *ml.ColMatrix, y []float64, w []float64) {
	n, p := cm.Len(), cm.Width()
	bn := cm.Bin(m.Bins)
	b := &histBuilder{
		bn:      bn,
		bins:    bn.Cols,
		edges:   bn.Edges,
		y:       y,
		w:       w,
		cfg:     m.Config,
		rnd:     rng.New(m.Seed ^ treeSeedMix),
		minLeaf: float64(m.MinSamplesLeaf),
	}
	b.feats = make([]int, p)
	for j := range b.feats {
		b.feats[j] = j
	}
	b.gains = make([]float64, p)
	// Zero-weight rows are compacted away: they contribute nothing to
	// any histogram and would only lengthen every node pass.
	b.idx = make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if w == nil || w[i] > 0 {
			b.idx = append(b.idx, int32(i))
		}
	}
	b.scratch = make([]int32, len(b.idx))

	// Engage the slab subtraction engine for large full-feature fits:
	// the root's histogram is materialized once and every descendant
	// derives from it. MaxFeatures subsampling keeps the direct path
	// (per-candidate fills — a slab fills all features, most of which a
	// sampled node would never sweep).
	var root *histSlab
	if len(b.idx) >= histSlabMinRows && !(m.MaxFeatures > 0 && m.MaxFeatures < p) {
		root = b.acquireSlab()
		b.fillSlab(root, 0, len(b.idx))
	}
	b.grow(0, len(b.idx), 0, root)
	b.recycleSlabs()
	ml.AddHistStats(&b.stats)
	m.nodes = b.nodes
	m.width = p
	m.importances = b.gains
	m.fitted = true
}

// nodeStats accumulates the weighted target sum and weight of a
// segment.
func (b *histBuilder) nodeStats(lo, hi int) (sum, count float64) {
	if b.w == nil {
		for _, i := range b.idx[lo:hi] {
			sum += b.y[i]
		}
		return sum, float64(hi - lo)
	}
	for _, i := range b.idx[lo:hi] {
		wi := b.w[i]
		if wi == 0 {
			continue
		}
		sum += wi * b.y[i]
		count += wi
	}
	return sum, count
}

// grow builds the subtree over segment [lo, hi) and returns its node
// index. s is the node's materialized histogram on the slab path, nil
// on the direct path; grow owns it and releases it (or hands it to a
// child via derivation) before returning.
func (b *histBuilder) grow(lo, hi, depth int, s *histSlab) int32 {
	self := int32(len(b.nodes))
	sum, count := b.nodeStats(lo, hi)
	b.nodes = append(b.nodes, node{feature: -1, value: sum / count})

	if count < float64(b.cfg.MinSamplesSplit) {
		b.releaseSlab(s)
		return self
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		b.releaseSlab(s)
		return self
	}
	var feat int
	var bin uint8
	var improvement, nl float64
	var ok bool
	if s != nil {
		feat, bin, improvement, nl, ok = b.bestSplitSlab(s, sum, count)
	} else {
		feat, bin, improvement, ok = b.bestSplit(lo, hi, sum, count)
	}
	if !ok {
		b.releaseSlab(s)
		return self
	}
	b.gains[feat] += improvement
	b.nodes[self].feature = feat
	// Raw-space threshold: the upper edge of the winning bin, so that
	// x <= edge routes left exactly like code <= bin did in training.
	b.nodes[self].threshold = b.edges[feat][bin]
	mid := b.partition(lo, hi, b.bins[feat], bin)
	var ls, rs *histSlab
	if s != nil {
		ls, rs = b.childSlabs(s, lo, mid, hi, depth, nl, count-nl)
	}
	l := b.grow(lo, mid, depth+1, ls)
	r := b.grow(mid, hi, depth+1, rs)
	b.nodes[self].kids = [2]int32{l, r}
	return self
}

// partition stably splits segment [lo, hi) of idx around
// codes[i] <= bin and returns the boundary. Bin-space partitioning is
// exact, so the child sizes always match the sweep's counts.
func (b *histBuilder) partition(lo, hi int, codes []uint8, bin uint8) int {
	seg := b.idx[lo:hi]
	nl, nr := 0, 0
	for pos := 0; pos < len(seg); pos++ {
		i := seg[pos]
		if codes[i] <= bin {
			seg[nl] = i
			nl++
		} else {
			b.scratch[nr] = i
			nr++
		}
	}
	copy(seg[nl:], b.scratch[:nr])
	return lo + nl
}

// bestSplit accumulates per-bin histograms over the segment for each
// candidate feature and sweeps the occupied bins cumulatively for the
// boundary maximizing the variance reduction. Only bins actually
// present in the node are swept and reset (tracked in a 256-bit mask).
func (b *histBuilder) bestSplit(lo, hi int, total, count float64) (feature int, bin uint8, improvement float64, ok bool) {
	candidates := b.feats
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < len(b.feats) {
		b.rnd.Shuffle(len(b.feats), func(i, j int) { b.feats[i], b.feats[j] = b.feats[j], b.feats[i] })
		candidates = b.feats[:b.cfg.MaxFeatures]
	}

	// Same strict-improvement guard as the exact engine.
	parentScore := total * total / count
	bestGain := parentScore + 1e-9*(1+math.Abs(parentScore))
	for _, f := range candidates {
		if g, c, hit := b.scanFeature(f, lo, hi, total, count, bestGain); hit {
			bestGain, feature, bin, ok = g, f, c, true
		}
	}
	b.stats.FillRows += uint64(hi-lo) * uint64(len(candidates))
	b.stats.DirectNodes++
	if ok {
		improvement = bestGain - parentScore
	}
	return feature, bin, improvement, ok
}

// scanFeature fills b.hs over one candidate feature's segment and
// sweeps the occupied bins for the boundary maximizing the variance
// reduction, returning the best gain strictly exceeding the floor and
// its bin; hit=false when no boundary clears it. b.hs is left zeroed.
func (b *histBuilder) scanFeature(f, lo, hi int, total, count, floor float64) (gain float64, bin uint8, hit bool) {
	st := &b.hs
	bestGain := floor
	lastBin := len(b.edges[f]) // highest code; splits need bin < lastBin
	if lastBin == 0 {
		return bestGain, 0, false // constant feature
	}
	seg := b.idx[lo:hi]
	codes := b.bins[f]
	if b.w == nil {
		for _, i := range seg {
			c := codes[i]
			st.sum[c] += b.y[i]
			st.cnt[c]++
			st.mask[c>>6] |= 1 << (c & 63)
		}
	} else {
		for _, i := range seg {
			wi := b.w[i]
			if wi == 0 {
				continue
			}
			c := codes[i]
			st.sum[c] += wi * b.y[i]
			st.cnt[c] += wi
			st.mask[c>>6] |= 1 << (c & 63)
		}
	}
	// Cumulative sweep over occupied bins, ascending. A boundary
	// between two occupied bins is a candidate; the winning bin is
	// the left group's highest occupied code.
	var sumL, nl float64
	prevBin := -1
	for word := 0; word < 4; word++ {
		m := st.mask[word]
		for m != 0 {
			c := word<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			if prevBin >= 0 && nl >= b.minLeaf && count-nl >= b.minLeaf {
				sumR := total - sumL
				g := sumL*sumL/nl + sumR*sumR/(count-nl)
				if g > bestGain {
					bestGain = g
					bin = uint8(prevBin)
					hit = true
				}
			}
			sumL += st.sum[c]
			nl += st.cnt[c]
			st.sum[c] = 0
			st.cnt[c] = 0
			prevBin = c
		}
		st.mask[word] = 0
	}
	return bestGain, bin, hit
}
