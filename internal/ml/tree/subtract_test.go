package tree

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// setHistGates overrides the slab engine's size gates for a test and
// restores them afterwards. The gates are pure functions of segment
// sizes, so moving them only changes WHICH nodes take the subtraction
// path.
func setHistGates(t *testing.T, slabMin, subMin int) {
	t.Helper()
	oldSlab, oldSub := histSlabMinRows, histSubtractMinRows
	histSlabMinRows, histSubtractMinRows = slabMin, subMin
	t.Cleanup(func() { histSlabMinRows, histSubtractMinRows = oldSlab, oldSub })
}

// naiveHist is the oracle's per-node histogram: fresh allocations, full
// per-feature bin ranges, no pooling, no envelopes.
type naiveHist struct {
	sum [][]float64
	cnt [][]float64
}

func newNaiveHist(bn *ml.Binned) *naiveHist {
	p := len(bn.Cols)
	h := &naiveHist{sum: make([][]float64, p), cnt: make([][]float64, p)}
	for f := 0; f < p; f++ {
		nb := bn.FeatureBins(f)
		h.sum[f] = make([]float64, nb)
		h.cnt[f] = make([]float64, nb)
	}
	return h
}

// naiveBinnedFit reimplements the histogram engine — including the slab
// engine's parent−sibling subtraction recurrence and its size gates —
// with the dumbest possible bookkeeping: per-node fresh allocations,
// fresh row slices, full-range sweeps, strictly serial. It is the
// reference the pooled/enveloped slab engine must reproduce
// bit for bit (the subtraction operands are the same floats in the same
// order, so even derived sums must match exactly). MaxFeatures
// subsampling is out of scope — the slab engine never engages there.
func naiveBinnedFit(m *Model, cm *ml.ColMatrix, y, w []float64) (nodes []node, gains []float64) {
	bn := cm.Bin(m.Bins)
	p := cm.Width()
	gains = make([]float64, p)
	minLeaf := float64(m.MinSamplesLeaf)
	minSplit := float64(m.MinSamplesSplit)

	var rows []int32
	for i := 0; i < cm.Len(); i++ {
		if w == nil || w[i] > 0 {
			rows = append(rows, int32(i))
		}
	}

	stats := func(rows []int32) (sum, count float64) {
		if w == nil {
			for _, i := range rows {
				sum += y[i]
			}
			return sum, float64(len(rows))
		}
		for _, i := range rows {
			sum += w[i] * y[i]
			count += w[i]
		}
		return sum, count
	}
	fill := func(rows []int32) *naiveHist {
		h := newNaiveHist(bn)
		for f := 0; f < p; f++ {
			codes := bn.Cols[f]
			for _, i := range rows {
				wi := 1.0
				if w != nil {
					wi = w[i]
				}
				h.sum[f][codes[i]] += wi * y[i]
				h.cnt[f][codes[i]] += wi
			}
		}
		return h
	}
	derive := func(parent, small *naiveHist) *naiveHist {
		h := newNaiveHist(bn)
		for f := 0; f < p; f++ {
			for c := range h.cnt[f] {
				cn := parent.cnt[f][c] - small.cnt[f][c]
				h.cnt[f][c] = cn
				if cn != 0 {
					h.sum[f][c] = parent.sum[f][c] - small.sum[f][c]
				}
			}
		}
		return h
	}
	sweep := func(h *naiveHist, f int, total, count, floor float64) (gain float64, bin uint8, nl float64, hit bool) {
		bestGain := floor
		var sumL, nlRun float64
		prev := -1
		for c := range h.cnt[f] {
			cn := h.cnt[f][c]
			if cn == 0 {
				continue
			}
			if prev >= 0 && nlRun >= minLeaf && count-nlRun >= minLeaf {
				sumR := total - sumL
				g := sumL*sumL/nlRun + sumR*sumR/(count-nlRun)
				if g > bestGain {
					bestGain, bin, nl, hit = g, uint8(prev), nlRun, true
				}
			}
			sumL += h.sum[f][c]
			nlRun += cn
			prev = c
		}
		return bestGain, bin, nl, hit
	}
	best := func(h *naiveHist, total, count float64) (feat int, bin uint8, improvement, nl float64, ok bool) {
		parentScore := total * total / count
		floor := parentScore + 1e-9*(1+abs(parentScore))
		bestGain := floor
		for f := 0; f < p; f++ {
			if g, c, l, hit := sweep(h, f, total, count, bestGain); hit {
				bestGain, feat, bin, nl, ok = g, f, c, l, true
			}
		}
		if ok {
			improvement = bestGain - parentScore
		}
		return feat, bin, improvement, nl, ok
	}

	var grow func(rows []int32, depth int, h *naiveHist) int32
	grow = func(rows []int32, depth int, h *naiveHist) int32 {
		self := int32(len(nodes))
		sum, count := stats(rows)
		nodes = append(nodes, node{feature: -1, value: sum / count})
		if count < minSplit || (m.MaxDepth > 0 && depth >= m.MaxDepth) {
			return self
		}
		if h == nil {
			h = fill(rows)
		}
		feat, bin, improvement, nl, ok := best(h, sum, count)
		if !ok {
			return self
		}
		gains[feat] += improvement
		nodes[self].feature = feat
		nodes[self].threshold = bn.Edges[feat][bin]
		codes := bn.Cols[feat]
		var left, right []int32
		for _, i := range rows {
			if codes[i] <= bin {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		// Child histogram decision: the engine's childSlabs gates,
		// replicated on fresh storage.
		var lh, rh *naiveHist
		depthOK := m.MaxDepth == 0 || depth+1 < m.MaxDepth
		cl, cr := nl, count-nl
		expandL := depthOK && !(cl < minSplit)
		expandR := depthOK && !(cr < minSplit)
		smallRows, largeRows := left, right
		expandSmall, expandLarge := expandL, expandR
		leftSmall := len(left) <= len(right)
		if !leftSmall {
			smallRows, largeRows = right, left
			expandSmall, expandLarge = expandR, expandL
		}
		if expandL || expandR {
			switch {
			case expandLarge && len(largeRows) >= histSubtractMinRows:
				smallH := fill(smallRows)
				largeH := derive(h, smallH)
				if !expandSmall {
					smallH = nil
				}
				if leftSmall {
					lh, rh = smallH, largeH
				} else {
					lh, rh = largeH, smallH
				}
			case expandSmall && len(smallRows) >= histSubtractMinRows:
				smallH := fill(smallRows)
				if leftSmall {
					lh = smallH
				} else {
					rh = smallH
				}
			}
		}
		l := grow(left, depth+1, lh)
		r := grow(right, depth+1, rh)
		nodes[self].kids = [2]int32{l, r}
		return self
	}

	var rootH *naiveHist
	if len(rows) >= histSlabMinRows {
		rootH = fill(rows)
	}
	grow(rows, 0, rootH)
	return nodes, gains
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestSubtractionEngineMatchesNaiveOracle anchors the whole slab engine
// — pooled slabs, envelope sweeps, in-place derivation — to the naive
// reimplementation of the same recurrence. Both subtract the same
// floats in the same order, so the comparison is bitwise even for
// continuous targets, across random datasets with ties, constant
// columns and zero-weight compacted rows.
func TestSubtractionEngineMatchesNaiveOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("large datasets")
	}
	// Low gates force subtraction through most of the tree. The counter
	// delta proves the engine really derived histograms rather than both
	// sides quietly degrading to direct fills.
	setHistGates(t, 256, 64)
	derivedBefore := ml.HistStatsSnapshot().DerivedNodes
	for trial := 0; trial < 6; trial++ {
		rnd := rng.New(uint64(31000 + trial))
		n := 1200 + rnd.Intn(1200)
		p := 1 + rnd.Intn(5)
		x, y := randomDataset(rnd, n, p)
		var w []float64
		if trial%2 == 1 {
			w = make([]float64, n)
			for i := 0; i < n; i++ {
				w[rnd.Intn(n)]++
			}
		}
		cfg := Config{
			MaxDepth:        2 + rnd.Intn(8),
			MinSamplesLeaf:  1 + rnd.Intn(3),
			MinSamplesSplit: 2 + rnd.Intn(6),
			Bins:            64 + rnd.Intn(193),
		}
		cm, err := ml.NewColMatrix(x)
		if err != nil {
			t.Fatal(err)
		}
		wantNodes, wantGains := naiveBinnedFit(New(cfg), cm, y, w)
		engine := New(cfg)
		if err := engine.FitWeighted(cm, y, w); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !nodesEqual(engine.nodes, wantNodes) {
			t.Fatalf("trial %d (n=%d p=%d w=%v): engine tree differs from naive subtraction oracle (engine %d nodes, oracle %d)",
				trial, n, p, w != nil, len(engine.nodes), len(wantNodes))
		}
		for f := range wantGains {
			if engine.importances[f] != wantGains[f] {
				t.Fatalf("trial %d: importance %d: engine %v oracle %v", trial, f, engine.importances[f], wantGains[f])
			}
		}
	}
	if d := ml.HistStatsSnapshot().DerivedNodes - derivedBefore; d == 0 {
		t.Fatal("no node histogram was derived by subtraction — the gates did not engage and the oracle comparison proved nothing")
	}
}

// TestSlabDirectPathBitIdenticalToLegacy pins the slab machinery
// itself: with subtraction gated off every slab is directly filled, and
// the result must be bit-identical to the per-candidate legacy path for
// ANY target values — the fills accumulate in the same row order and
// the envelope sweep visits the same occupied-bin sequence as the
// legacy occupancy-mask sweep.
func TestSlabDirectPathBitIdenticalToLegacy(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rnd := rng.New(uint64(32000 + trial))
		n := 1100 + rnd.Intn(1500)
		p := 1 + rnd.Intn(5)
		x, y := randomDataset(rnd, n, p)
		var w []float64
		if trial%3 == 2 {
			w = make([]float64, n)
			for i := 0; i < n; i++ {
				w[rnd.Intn(n)]++
			}
		}
		cfg := Config{MaxDepth: 9, MinSamplesLeaf: 2, Bins: 128}
		cm, err := ml.NewColMatrix(x)
		if err != nil {
			t.Fatal(err)
		}

		setHistGates(t, 1<<30, 1<<30) // legacy everywhere
		legacy := New(cfg)
		if err := legacy.FitWeighted(cm, y, w); err != nil {
			t.Fatal(err)
		}
		setHistGates(t, 1, 1<<30) // slabs everywhere, subtraction nowhere
		slab := New(cfg)
		if err := slab.FitWeighted(cm, y, w); err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(legacy.nodes, slab.nodes) {
			t.Fatalf("trial %d (n=%d p=%d): direct-filled slab tree differs from legacy path", trial, n, p)
		}
		for f := range legacy.importances {
			if legacy.importances[f] != slab.importances[f] {
				t.Fatalf("trial %d: importance %d differs: legacy %v slab %v", trial, f, legacy.importances[f], slab.importances[f])
			}
		}
	}
}

// TestSubtractionExactOnIntegerTargets: with integer targets and
// integer multiplicities every histogram sum is an exact integer, so
// parent − sibling derivation loses nothing and the engine must produce
// the same tree no matter where the gates sit — subtraction everywhere,
// nowhere, or off the slab path entirely.
func TestSubtractionExactOnIntegerTargets(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rnd := rng.New(uint64(33000 + trial))
		n := 1300 + rnd.Intn(1000)
		p := 1 + rnd.Intn(4)
		x, _ := randomDataset(rnd, n, p)
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(rnd.Intn(17) - 8)
		}
		var w []float64
		if trial%2 == 1 {
			w = make([]float64, n)
			for i := 0; i < n; i++ {
				w[rnd.Intn(n)]++
			}
		}
		cfg := Config{MaxDepth: 8, MinSamplesLeaf: 1, Bins: 255}
		cm, err := ml.NewColMatrix(x)
		if err != nil {
			t.Fatal(err)
		}
		var want []node
		for gi, gates := range [][2]int{{1, 32}, {1024, 512}, {1 << 30, 1 << 30}} {
			setHistGates(t, gates[0], gates[1])
			m := New(cfg)
			if err := m.FitWeighted(cm, y, w); err != nil {
				t.Fatal(err)
			}
			if gi == 0 {
				want = m.nodes
				continue
			}
			if !nodesEqual(want, m.nodes) {
				t.Fatalf("trial %d gates %v: integer-target tree changed with gate placement", trial, gates)
			}
		}
	}
}

// TestPerNodeHistWorkAllocationFree pins the slab pool: once a fit's
// working set is warm, per-node histogram work — acquire, direct fill,
// derive-by-subtraction, release — allocates nothing.
func TestPerNodeHistWorkAllocationFree(t *testing.T) {
	rnd := rng.New(99)
	n, p := 4096, 5
	x, y := randomDataset(rnd, n, p)
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	bn := cm.Bin(256)
	b := &histBuilder{
		bn:      bn,
		bins:    bn.Cols,
		edges:   bn.Edges,
		y:       y,
		cfg:     Config{MinSamplesSplit: 2, MinSamplesLeaf: 1, Bins: 256},
		minLeaf: 1,
	}
	b.feats = make([]int, p)
	for j := range b.feats {
		b.feats[j] = j
	}
	b.idx = make([]int32, n)
	for i := range b.idx {
		b.idx[i] = int32(i)
	}
	cycle := func() {
		parent := b.acquireSlab()
		b.fillSlab(parent, 0, n)
		small := b.acquireSlab()
		b.fillSlab(small, 0, n/3)
		b.deriveSlab(parent, small, false)
		b.releaseSlab(small)
		b.releaseSlab(parent)
	}
	cycle() // warm the pool
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("per-node histogram work allocates %.1f times per fill/derive/release cycle, want 0", allocs)
	}
}

// TestSlabRecyclerInvariant pins the cross-fit slab recycler: every
// slab a fit hands to the package pool is zeroed out to its backing
// capacity with empty envelopes (so recycling cannot perturb a later
// fit), the shape guard drops undersized slabs instead of growing them,
// and a fit running on recycled slabs reproduces a fresh-allocation fit
// bit for bit.
func TestSlabRecyclerInvariant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	setHistGates(t, 256, 64)
	rnd := rng.New(777)
	x, y := randomDataset(rnd, 2500, 4)
	cfg := Config{MaxDepth: 8, MinSamplesLeaf: 2, Bins: 128}
	for slabRecycler.Get() != nil { // isolate from earlier tests' fits
	}
	first := New(cfg)
	if err := first.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var pooled []*histSlab
	for {
		v := slabRecycler.Get()
		if v == nil {
			break
		}
		pooled = append(pooled, v.(*histSlab))
	}
	if len(pooled) == 0 {
		t.Fatal("slab-path fit recycled no slabs")
	}
	for si, s := range pooled {
		sum, cnt := s.sum[:cap(s.sum)], s.cnt[:cap(s.cnt)]
		for i := range sum {
			if sum[i] != 0 || cnt[i] != 0 {
				t.Fatalf("pooled slab %d dirty at cell %d: sum=%v cnt=%v", si, i, sum[i], cnt[i])
			}
		}
		lo, hi := s.lo[:cap(s.lo)], s.hi[:cap(s.hi)]
		for f := range lo {
			if lo[f] != 1 || hi[f] != 0 {
				t.Fatalf("pooled slab %d envelope %d not reset: [%d,%d]", si, f, lo[f], hi[f])
			}
		}
	}
	// The shape guard drops an undersized slab rather than growing it...
	slabRecycler.Put(pooled[0])
	if s := recycledSlab(cap(pooled[0].sum)+1, len(pooled[0].lo)); s != nil {
		t.Fatal("recycledSlab returned a slab smaller than the requested layout")
	}
	// ...and reshapes a big-enough one to the requested layout.
	slabRecycler.Put(pooled[0])
	if s := recycledSlab(1, 1); s == nil {
		t.Fatal("recycledSlab rejected a big-enough pooled slab")
	} else if len(s.sum) != 1 || len(s.cnt) != 1 || len(s.lo) != 1 || len(s.hi) != 1 {
		t.Fatalf("recycledSlab did not reshape: sum=%d cnt=%d lo=%d hi=%d", len(s.sum), len(s.cnt), len(s.lo), len(s.hi))
	}
	// A fit consuming recycled slabs matches the fresh-allocation fit.
	for _, s := range pooled {
		slabRecycler.Put(s)
	}
	second := New(cfg)
	if err := second.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(first.nodes, second.nodes) {
		t.Fatal("fit on recycled slabs differs from fresh-allocation fit")
	}
}
