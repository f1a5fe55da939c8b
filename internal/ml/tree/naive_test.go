package tree

import (
	"math"
	"sort"

	"repro/internal/rng"
)

// naiveBuilder is the test-only reference implementation of the exact
// CART grower: it re-sorts every candidate feature at every node, which
// makes node expansion O(F·n log n) but keeps the logic obviously
// correct. The production exact engine (exactBuilder) sorts each
// feature once per Fit and partitions the orders down the tree; the
// oracle tests assert that both produce bit-identical trees. Ties in
// feature values are broken by row index (a stable order), which is the
// order the presorted engine's stable partitioning preserves.
type naiveBuilder struct {
	x       [][]float64
	y       []float64
	cfg     Config
	rnd     *rng.Source
	feats   []int
	nodes   []node
	sorted  []int // scratch index buffer
	minLeaf int
	// gains accumulates per-feature split improvement (SSE reduction)
	// for feature importances.
	gains []float64
}

// fitNaive grows a tree with the reference builder and installs it into
// the model.
func (m *Model) fitNaive(x [][]float64, y []float64) {
	p := len(x[0])
	b := &naiveBuilder{
		x:       x,
		y:       y,
		cfg:     m.Config,
		rnd:     rng.New(m.Seed ^ treeSeedMix),
		minLeaf: m.MinSamplesLeaf,
	}
	b.feats = make([]int, p)
	for j := range b.feats {
		b.feats[j] = j
	}
	b.gains = make([]float64, p)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	b.grow(idx, 0)
	m.nodes = b.nodes
	m.width = p
	m.importances = b.gains
	m.fitted = true
}

// grow builds the subtree over idx and returns its node index.
func (b *naiveBuilder) grow(idx []int, depth int) int32 {
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1, value: naiveMean(b.y, idx)})

	if len(idx) < b.cfg.MinSamplesSplit {
		return self
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return self
	}
	feat, thr, improvement, ok := b.bestSplit(idx)
	if !ok {
		return self
	}
	left := make([]int, 0, len(idx))
	right := make([]int, 0, len(idx))
	for _, i := range idx {
		if b.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.minLeaf || len(right) < b.minLeaf {
		return self
	}
	b.gains[feat] += improvement
	b.nodes[self].feature = feat
	b.nodes[self].threshold = thr
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[self].kids = [2]int32{l, r}
	return self
}

// bestSplit scans candidate features for the split maximizing the
// variance reduction; returns ok=false when no valid split exists.
// improvement is the SSE reduction of the winning split.
func (b *naiveBuilder) bestSplit(idx []int) (feature int, threshold float64, improvement float64, ok bool) {
	candidates := b.feats
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < len(b.feats) {
		b.rnd.Shuffle(len(b.feats), func(i, j int) { b.feats[i], b.feats[j] = b.feats[j], b.feats[i] })
		candidates = b.feats[:b.cfg.MaxFeatures]
	}

	n := len(idx)
	if cap(b.sorted) < n {
		b.sorted = make([]int, n)
	}
	order := b.sorted[:n]

	var total float64
	for _, i := range idx {
		total += b.y[i]
	}
	// A split must strictly reduce the within-node SSE: its score
	// Σ_L²/n_L + Σ_R²/n_R must exceed the parent's Σ²/n. Without this
	// guard a constant-target node would split arbitrarily (every
	// split ties the parent score exactly).
	parentScore := total * total / float64(n)
	bestGain := parentScore + 1e-9*(1+math.Abs(parentScore))
	for _, f := range candidates {
		copy(order, idx)
		sort.Slice(order, func(a, c int) bool {
			va, vc := b.x[order[a]][f], b.x[order[c]][f]
			if va != vc {
				return va < vc
			}
			return order[a] < order[c]
		})

		var sumL float64
		for pos := 0; pos < n-1; pos++ {
			i := order[pos]
			sumL += b.y[i]
			nl := pos + 1
			nr := n - nl
			if nl < b.minLeaf || nr < b.minLeaf {
				continue
			}
			xi, xnext := b.x[i][f], b.x[order[pos+1]][f]
			if xi == xnext {
				continue // cannot separate equal values
			}
			sumR := total - sumL
			// Maximizing Σ_L²/n_L + Σ_R²/n_R is equivalent to
			// minimizing within-child SSE for a fixed node.
			gain := sumL*sumL/float64(nl) + sumR*sumR/float64(nr)
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = xi + (xnext-xi)/2
				ok = true
			}
		}
	}
	if ok {
		improvement = bestGain - parentScore
	}
	return feature, threshold, improvement, ok
}

func naiveMean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}
