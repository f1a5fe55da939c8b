package tree

import (
	"math"

	"repro/internal/ml"
	"repro/internal/rng"
)

// exactBuilder is the presorted exact split engine. The matrix's
// per-feature (value, row)-sorted orders are copied once per Fit and
// stably partitioned down the tree, so every node scans each candidate
// feature in sorted order without sorting and without allocating:
// expansion is O(F·n) per node instead of O(F·n log n).
//
// All floating-point accumulation follows the naive reference exactly —
// node sums iterate rows ascending, scan sums iterate the sorted order
// — so the grown tree is bit-identical to naiveBuilder's (the oracle
// tests in oracle_test.go enforce this).
type exactBuilder struct {
	cols [][]float64
	y    []float64
	w    []int32 // nil = every row once; integer multiplicities
	cfg  Config
	rnd  *rng.Source

	feats   []int
	nodes   []node
	minLeaf float64
	gains   []float64 // per-feature importance, summed in DFS split order

	// order holds per-feature sorted row ids; idx the ascending row
	// ids. Both are segment-partitioned in place as the tree grows.
	order   [][]int32
	idx     []int32
	scratch []int32 // stable-partition spill buffer
	left    []bool  // per-row side of the current split
}

// fitExact grows the tree with the presorted engine and installs it.
func (m *Model) fitExact(cm *ml.ColMatrix, y []float64, w []float64) {
	n, p := cm.Len(), cm.Width()
	b := &exactBuilder{
		y:       y,
		cfg:     m.Config,
		rnd:     rng.New(m.Seed ^ treeSeedMix),
		minLeaf: float64(m.MinSamplesLeaf),
	}
	if w != nil {
		// Integer multiplicities: cheaper loop counters than float
		// weights, and the repeated-addition accumulation that keeps
		// weighted trees bit-identical to materialized bags needs
		// whole counts anyway (validated in FitWeighted).
		b.w = make([]int32, n)
		for i, wi := range w {
			b.w[i] = int32(wi)
		}
	}
	b.cols = make([][]float64, p)
	for j := range b.cols {
		b.cols[j] = cm.Col(j)
	}
	b.feats = make([]int, p)
	for j := range b.feats {
		b.feats[j] = j
	}
	b.gains = make([]float64, p)

	// Copy the shared presorted orders: the builder partitions them
	// destructively. One backing array keeps this a single allocation.
	// Zero-weight rows (bootstrap left them out of the bag) are
	// compacted away during the copy — they would ride along through
	// every scan and partition while contributing nothing. Filtering
	// preserves each order, so the result is bit-identical.
	shared := cm.Order()
	active := n
	if w != nil {
		active = 0
		for _, wi := range w {
			if wi > 0 {
				active++
			}
		}
	}
	backing := make([]int32, active*p)
	b.order = make([][]int32, p)
	for j := range b.order {
		ord := backing[j*active : j*active : (j+1)*active]
		if w == nil {
			ord = ord[:active]
			copy(ord, shared[j])
		} else {
			for _, i := range shared[j] {
				if w[i] > 0 {
					ord = append(ord, i)
				}
			}
		}
		b.order[j] = ord
	}
	b.idx = make([]int32, 0, active)
	for i := 0; i < n; i++ {
		if w == nil || w[i] > 0 {
			b.idx = append(b.idx, int32(i))
		}
	}
	b.scratch = make([]int32, active)
	b.left = make([]bool, n)
	// A binary tree over `active` rows with MinSamplesLeaf-sized leaves
	// cannot exceed 2·active/minLeaf nodes; reserving it up front keeps
	// growth out of the recursion. Guard the divisor: a zero-value
	// Model (not built via New) carries MinSamplesLeaf 0.
	leafFloor := m.MinSamplesLeaf
	if leafFloor < 1 {
		leafFloor = 1
	}
	est := 2*active/leafFloor + 1
	b.nodes = make([]node, 0, est)

	sum, count := b.nodeStats(0, active)
	b.grow(0, active, 0, sum, count)
	// Keep only the nodes the tree uses: the reservation is a worst
	// case, and bootstrapped rows repeat, so most of it stays empty.
	m.nodes = append(make([]node, 0, len(b.nodes)), b.nodes...)
	m.width = p
	m.importances = b.gains
	m.fitted = true
}

// nodeStats accumulates the weighted target sum and weight of a
// segment, iterating rows ascending (the naive reference's order).
func (b *exactBuilder) nodeStats(lo, hi int) (sum, count float64) {
	if b.w == nil {
		for _, i := range b.idx[lo:hi] {
			sum += b.y[i]
		}
		return sum, float64(hi - lo)
	}
	// Weights are multiplicities: accumulate by repeated addition, the
	// exact float sequence a materialized multiset would produce, so a
	// weighted tree is bit-identical to one fit on duplicated rows.
	for _, i := range b.idx[lo:hi] {
		yi := b.y[i]
		for k := b.w[i]; k >= 1; k-- {
			sum += yi
			count++
		}
	}
	return sum, count
}

// grow builds the subtree over segment [lo, hi) and returns its node
// index. sum and count are the segment's weighted target sum and
// weight, accumulated in ascending row order (the parent computed them
// during its partition pass, in exactly the order nodeStats would).
func (b *exactBuilder) grow(lo, hi, depth int, sum, count float64) int32 {
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1, value: sum / count})

	if count < float64(b.cfg.MinSamplesSplit) {
		return self
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return self
	}
	feat, thr, improvement, ok := b.bestSplit(lo, hi, sum, count)
	if !ok {
		return self
	}
	// Partition the ascending-row segment branchlessly (both target
	// slots are written every row; the comparison only picks which
	// counter advances — no mispredict-prone branch), then accumulate
	// each child's weighted sum over its compacted block. The per-side
	// order equals the order a nodeStats pass over the child would
	// visit, so the sums are bit-identical to recomputing them.
	// Bailing after the idx partition is safe — a leaf's segment
	// ordering is never read again; the gate still catches the
	// midpoint threshold rounding up onto the right boundary value
	// (which the naive reference catches after materializing
	// children).
	col := b.cols[feat]
	seg := b.idx[lo:hi]
	cl, cr := 0, 0
	for pos := 0; pos < len(seg); pos++ {
		i := seg[pos]
		isR := 0
		if col[i] > thr {
			isR = 1
		}
		b.left[i] = isR == 0
		seg[cl] = i
		b.scratch[cr] = i
		cl += 1 - isR
		cr += isR
	}
	copy(seg[cl:], b.scratch[:cr])
	var sumL, sumR, nl, nr float64
	if b.w == nil {
		for _, i := range seg[:cl] {
			sumL += b.y[i]
		}
		for _, i := range seg[cl:] {
			sumR += b.y[i]
		}
		nl, nr = float64(cl), float64(cr)
	} else {
		for _, i := range seg[:cl] {
			yi := b.y[i]
			for k := b.w[i]; k >= 1; k-- {
				sumL += yi
				nl++
			}
		}
		for _, i := range seg[cl:] {
			yi := b.y[i]
			for k := b.w[i]; k >= 1; k-- {
				sumR += yi
				nr++
			}
		}
	}
	if nl < b.minLeaf || nr < b.minLeaf {
		return self
	}
	b.gains[feat] += improvement
	b.nodes[self].feature = feat
	b.nodes[self].threshold = thr
	mid := lo + cl
	// The split feature's own order needs no work: it is sorted by the
	// split value, so the left set already occupies the prefix in
	// (value, row) order. Only the other features' orders partition.
	for f := range b.order {
		if f != feat {
			stablePartition(b.order[f][lo:hi], b.left, b.scratch)
		}
	}
	l := b.grow(lo, mid, depth+1, sumL, nl)
	r := b.grow(mid, hi, depth+1, sumR, nr)
	b.nodes[self].kids = [2]int32{l, r}
	return self
}

// stablePartition moves rows flagged left to the segment's front,
// preserving relative order on both sides, and returns the left count.
func stablePartition(seg []int32, left []bool, scratch []int32) int {
	nl, nr := 0, 0
	for pos := 0; pos < len(seg); pos++ {
		i := seg[pos]
		if left[i] {
			seg[nl] = i // nl <= pos: overwrites only already-read slots
			nl++
		} else {
			scratch[nr] = i
			nr++
		}
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}

// bestSplit scans candidate features' presorted segments for the split
// maximizing the variance reduction; returns ok=false when no valid
// split exists. improvement is the SSE reduction of the winning split.
func (b *exactBuilder) bestSplit(lo, hi int, total, count float64) (feature int, threshold, improvement float64, ok bool) {
	candidates := b.feats
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < len(b.feats) {
		b.rnd.Shuffle(len(b.feats), func(i, j int) { b.feats[i], b.feats[j] = b.feats[j], b.feats[i] })
		candidates = b.feats[:b.cfg.MaxFeatures]
	}

	// A split must strictly reduce the within-node SSE: its score
	// Σ_L²/n_L + Σ_R²/n_R must exceed the parent's Σ²/n. Without this
	// guard a constant-target node would split arbitrarily (every
	// split ties the parent score exactly).
	parentScore := total * total / count
	bestGain := parentScore + 1e-9*(1+math.Abs(parentScore))
	for _, f := range candidates {
		if g, t, hit := b.scanFeature(f, lo, hi, total, count, bestGain); hit {
			bestGain, feature, threshold, ok = g, f, t, true
		}
	}
	if ok {
		improvement = bestGain - parentScore
	}
	return feature, threshold, improvement, ok
}

// scanFeature sweeps one feature's presorted segment for the boundary
// maximizing Σ_L²/n_L + Σ_R²/n_R, returning the best gain strictly
// exceeding the given floor and its midpoint threshold; hit=false when
// no boundary clears the floor.
func (b *exactBuilder) scanFeature(f, lo, hi int, total, count, floor float64) (gain, threshold float64, hit bool) {
	col := b.cols[f]
	ord := b.order[f][lo:hi]
	bestGain := floor
	if b.w == nil {
		n := len(ord)
		var sumL float64
		for pos := 0; pos < n-1; pos++ {
			i := ord[pos]
			sumL += b.y[i]
			nl := float64(pos + 1)
			nr := count - nl
			if nl < b.minLeaf || nr < b.minLeaf {
				continue
			}
			xi, xnext := col[i], col[ord[pos+1]]
			if xi == xnext {
				continue // cannot separate equal values
			}
			sumR := total - sumL
			// Maximizing Σ_L²/n_L + Σ_R²/n_R is equivalent to
			// minimizing within-child SSE for a fixed node.
			g := sumL*sumL/nl + sumR*sumR/nr
			if g > bestGain {
				bestGain = g
				threshold = xi + (xnext-xi)/2
				hit = true
			}
		}
		return bestGain, threshold, hit
	}
	// Weighted scan: boundaries, counts and sums consider each row
	// with its multiplicity, exactly as if duplicates were
	// materialized (repeated addition keeps the float sequence,
	// and hence the grown tree, bit-identical to the materialized
	// bag; zero-weight rows were compacted away at setup).
	var sumL, nl float64
	prev := int32(-1)
	for _, i := range ord {
		wi := b.w[i]
		if prev >= 0 {
			xi, xnext := col[prev], col[i]
			if xi != xnext && nl >= b.minLeaf && count-nl >= b.minLeaf {
				sumR := total - sumL
				g := sumL*sumL/nl + sumR*sumR/(count-nl)
				if g > bestGain {
					bestGain = g
					threshold = xi + (xnext-xi)/2
					hit = true
				}
			}
		}
		for k := wi; k >= 1; k-- {
			sumL += b.y[i]
			nl++
		}
		prev = i
	}
	return bestGain, threshold, hit
}
