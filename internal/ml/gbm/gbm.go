// Package gbm implements histogram-based gradient-boosted regression
// trees — the paper's XGB model ("histogram-based gradient boosting ...
// minimizes the prediction loss by combining many decision tree
// regressors").
//
// Training follows the standard second-order boosting recipe for squared
// loss: each round fits a depth-limited regression tree to the current
// residual gradients over quantile-binned features (at most MaxBins bins
// per feature), with L2 leaf regularization, shrinkage, and optional row
// subsampling. Histogram binning makes split search O(bins) per feature
// per node instead of O(n log n).
//
// The features are binned exactly once per Fit through the shared
// ml.ColMatrix — and when a matrix is handed in via FitMatrix (grid
// search folds), not even once, since the binning is cached on the
// matrix. Inside a round, node scans sweep only the bins actually
// present in the node (a 256-bit occupancy mask), rows are partitioned
// in place through reusable segment buffers, and training-row
// predictions are updated directly from the leaves they land in, so the
// boosting loop allocates nothing per round.
package gbm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ml"
	"repro/internal/rng"
)

// Config controls the boosted ensemble.
type Config struct {
	// NEstimators is the number of boosting rounds (paper grid: 10…1000).
	NEstimators int
	// LearningRate is the shrinkage applied to each tree.
	LearningRate float64
	// MaxDepth bounds each tree (paper grid: 3…50).
	MaxDepth int
	// MinChildSamples is the minimum samples per leaf.
	MinChildSamples int
	// Lambda is the L2 penalty on leaf values.
	Lambda float64
	// MaxBins is the histogram resolution per feature (≤ 256).
	MaxBins int
	// Subsample is the per-round row sampling fraction in (0, 1].
	Subsample float64
	// ValidationFraction holds out this share of rows (chosen at
	// random) to monitor generalization when early stopping is active.
	ValidationFraction float64
	// EarlyStoppingRounds stops boosting when the validation loss has
	// not improved for this many consecutive rounds, keeping the best
	// round count; 0 disables early stopping.
	EarlyStoppingRounds int
	// Seed makes subsampling deterministic.
	Seed uint64
}

// DefaultConfig mirrors common histogram-GBM defaults.
func DefaultConfig() Config {
	return Config{
		NEstimators:     100,
		LearningRate:    0.1,
		MaxDepth:        6,
		MinChildSamples: 5,
		Lambda:          1.0,
		MaxBins:         256,
		Subsample:       1.0,
		Seed:            1,
	}
}

// Model is a fitted gradient-boosted ensemble.
type Model struct {
	Config

	baseScore float64
	// nodes stores every stage's tree in one flat array (cache-dense
	// inference); stage t owns nodes[stageStart[t]:stageStart[t+1]]
	// with child links relative to the stage's base.
	nodes      []bnode
	stageStart []int32
	edges      [][]float64 // per-feature bin upper edges

	width  int
	fitted bool
}

// bnode is one node of a booster stage, stored with raw-space
// thresholds so prediction needs no binning. The layout packs into 32
// bytes so a cache line holds two nodes during tree walks.
type bnode struct {
	// threshold is the raw-space split value (upper edge of bin); bin is
	// the same split in bin space, used during training where rows are
	// already binned. bin(x) ≤ bin ⟺ x ≤ threshold by construction.
	threshold float64
	value     float64
	// kids[0] is the left (<=) child, kids[1] the right one.
	kids    [2]int32
	feature int16 // -1 for leaf
	bin     uint8
}

var _ ml.Regressor = (*Model)(nil)
var _ ml.MatrixFitter = (*Model)(nil)
var _ ml.BatchPredictor = (*Model)(nil)

// New returns an unfitted model, normalizing invalid config fields to
// the defaults.
func New(cfg Config) *Model {
	d := DefaultConfig()
	if cfg.NEstimators <= 0 {
		cfg.NEstimators = d.NEstimators
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = d.LearningRate
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = d.MaxDepth
	}
	if cfg.MinChildSamples < 1 {
		cfg.MinChildSamples = d.MinChildSamples
	}
	if cfg.Lambda < 0 {
		cfg.Lambda = d.Lambda
	}
	if cfg.MaxBins <= 1 || cfg.MaxBins > 256 {
		cfg.MaxBins = d.MaxBins
	}
	if cfg.Subsample <= 0 || cfg.Subsample > 1 {
		cfg.Subsample = d.Subsample
	}
	if cfg.EarlyStoppingRounds > 0 && (cfg.ValidationFraction <= 0 || cfg.ValidationFraction >= 1) {
		cfg.ValidationFraction = 0.15
	}
	return &Model{Config: cfg}
}

// trainer carries the per-Fit working state of the boosting loop; every
// buffer is allocated once and reused across rounds.
type trainer struct {
	m    *Model
	bn   *ml.Binned
	bins [][]uint8 // column-major bin codes
	grad []float64
	pred []float64

	// slabFree pools the stage trees' histogram slabs (slab.go); stats
	// tallies fill/subtract/sweep work, merged into the package
	// counters once per Fit.
	slabFree []*gslab
	stats    ml.HistStats

	rows    []int32 // current round's rows, segment-partitioned in place
	scratch []int32
	base    int    // index of the current stage's root in m.nodes
	inTree  []bool // round membership, only maintained when partial

	permBuf []int // subsample permutation reuse

	// recip[k] = 1/(k+λ): the gain sweep multiplies by precomputed
	// reciprocals instead of dividing per candidate bin — two DIVSDs
	// per bin would otherwise dominate split finding. Gains drift from
	// long division at the last-ulp level, which is why the pinned GBM
	// regression values are the engine's own, not the seed's.
	recip []float64

	hist [256]histCell
	mask [4]uint64
	// valTab maps bin → leaf value for the stage just grown, used by
	// the single-feature fast path to apply a stage to its rows
	// without walking (a univariate stage is a function of the bin).
	valTab [256]float64
}

// histCell packs one bin's gradient sum and row count into a single
// cache line touch per accumulated row.
type histCell struct {
	g float64
	n int32
}

// Fit trains the boosted ensemble with squared loss.
func (m *Model) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateXY(x, y); err != nil {
		return err
	}
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		return err
	}
	return m.FitMatrix(cm, y)
}

// FitMatrix trains from a prebuilt column matrix, reusing its cached
// quantile binning (features never change across boosting rounds, and
// across grid-search configurations sharing the matrix they never
// change either — only gradients do).
func (m *Model) FitMatrix(cm *ml.ColMatrix, y []float64) error {
	if cm.Len() != len(y) {
		return fmt.Errorf("gbm: %d rows but %d targets", cm.Len(), len(y))
	}
	n, p := cm.Len(), cm.Width()
	if p > 32767 {
		return fmt.Errorf("gbm: %d features exceed the int16 feature index space", p)
	}

	bn := cm.Bin(m.MaxBins)
	m.edges = bn.Edges

	// Base score: the target mean.
	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(n)
	m.baseScore = base

	t := &trainer{
		m:       m,
		bn:      bn,
		bins:    bn.Cols,
		grad:    make([]float64, n),
		pred:    make([]float64, n),
		rows:    make([]int32, n),
		scratch: make([]int32, n),
		recip:   make([]float64, n+1),
	}
	for k := range t.recip {
		t.recip[k] = 1 / (float64(k) + m.Lambda)
	}
	for i := range t.pred {
		t.pred[i] = base
	}
	rnd := rng.New(m.Seed ^ 0xbb67ae8584caa73b)

	// Early stopping: hold out a random validation subset that trees
	// never fit on, and monitor its MAE round by round.
	var trainRows, valRows []int32
	if m.EarlyStoppingRounds > 0 {
		perm := rnd.Perm(n)
		nVal := int(float64(n) * m.ValidationFraction)
		if nVal < 1 {
			nVal = 1
		}
		if nVal >= n {
			nVal = n - 1
		}
		for _, i := range perm[:nVal] {
			valRows = append(valRows, int32(i))
		}
		for _, i := range perm[nVal:] {
			trainRows = append(trainRows, int32(i))
		}
		slices.Sort(trainRows)
		slices.Sort(valRows)
	} else {
		trainRows = make([]int32, n)
		for i := range trainRows {
			trainRows[i] = int32(i)
		}
	}
	partialRounds := m.Subsample < 1 || len(trainRows) < n
	if partialRounds {
		t.inTree = make([]bool, n)
		t.permBuf = make([]int, len(trainRows))
	}

	bestLoss := math.Inf(1)
	bestRound := 0
	stale := 0

	m.nodes = m.nodes[:0]
	m.stageStart = append(m.stageStart[:0], 0)
	m.width = p
	for round := 0; round < m.NEstimators; round++ {
		var gRoot float64
		if partialRounds {
			for i := range t.grad {
				t.grad[i] = t.pred[i] - y[i] // d/dF ½(F−y)²
			}
		} else {
			// Full-batch round: the root's gradient sum falls out of
			// the same pass (identical accumulation order).
			for i := range t.grad {
				g := t.pred[i] - y[i]
				t.grad[i] = g
				gRoot += g
			}
		}
		rows := t.rows[:copy(t.rows, trainRows)]
		if m.Subsample < 1 {
			rows = t.sampleFrom(trainRows, m.Subsample, rnd)
		}
		if partialRounds {
			for _, i := range rows {
				gRoot += t.grad[i]
			}
		}
		stageBase := len(m.nodes)
		t.growTree(rows, gRoot)
		m.stageStart = append(m.stageStart, int32(len(m.nodes)))
		if round == 0 {
			// Reserve room for the remaining stages in one step,
			// assuming they stay about the first stage's size.
			if est := len(m.nodes) * m.NEstimators; cap(m.nodes) < est {
				grown := make([]bnode, len(m.nodes), est+est/8)
				copy(grown, m.nodes)
				m.nodes = grown
			}
		}
		// Training rows got their prediction update directly from the
		// leaf they landed in; rows outside this round's tree (held-out
		// validation rows, subsampled-out rows) walk the new stage.
		if partialRounds {
			for _, i := range rows {
				t.inTree[i] = true
			}
			for i := 0; i < n; i++ {
				if !t.inTree[i] {
					t.pred[i] += m.predictStageBinned(stageBase, t.bins, i)
				}
			}
			for _, i := range rows {
				t.inTree[i] = false
			}
		}
		if m.EarlyStoppingRounds > 0 {
			var loss float64
			for _, i := range valRows {
				loss += math.Abs(t.pred[i] - y[i])
			}
			loss /= float64(len(valRows))
			if loss < bestLoss-1e-12 {
				bestLoss = loss
				bestRound = round
				stale = 0
			} else {
				stale++
				if stale >= m.EarlyStoppingRounds {
					break
				}
			}
		}
	}
	if m.EarlyStoppingRounds > 0 {
		m.stageStart = m.stageStart[:bestRound+2]
		m.nodes = m.nodes[:m.stageStart[bestRound+1]]
	}
	// Keep only what the fitted stages use: round 0 reserved room for
	// every round, and early stopping may have cut most of it.
	m.nodes = append(make([]bnode, 0, len(m.nodes)), m.nodes...)
	m.stageStart = append(make([]int32, 0, len(m.stageStart)), m.stageStart...)
	t.recycleSlabs()
	ml.AddHistStats(&t.stats)
	m.fitted = true
	return nil
}

// growTree builds one depth-limited tree on the gradient targets using
// per-node histograms, appending its nodes to m.nodes with stage-local
// child links. Leaf values are −G/(H+λ)·η where H is the sample count
// (unit hessian for squared loss) and η the learning rate; rows landing
// in a final leaf get their running prediction bumped immediately.
func (t *trainer) growTree(rows []int32, gRoot float64) {
	t.base = len(t.m.nodes)
	if len(t.bins) == 1 {
		t.growTree1D(rows, gRoot)
		return
	}
	// Large multi-feature rounds run on the slab subtraction engine:
	// the root's histogram is materialized once and descendants derive
	// as parent − sibling (slab.go). Smaller rounds keep the
	// per-candidate scan path, bit-identically.
	var root *gslab
	if len(rows) >= histSlabMinRows {
		root = t.acquireSlab()
		t.fillSlab(root, 0, len(rows))
	}
	t.build(0, len(rows), 0, gRoot, root)
}

// growTree1D grows a stage over a single-feature matrix (the paper's
// W = 0 univariate models). With one feature, every node's histogram is
// a bin sub-range of the root's, so the stage needs exactly one
// histogram fill and zero row partitioning: the tree is built by
// range-recursive sweeps, and leaf values reach the rows through a
// bin → value table. Gains, counts, leaf values and node layout are
// bit-identical to the general path's — per-bin sums aggregate the
// same rows in the same order, and each sub-range sweep visits exactly
// the occupied bins the refilled child histogram would contain.
func (t *trainer) growTree1D(rows []int32, gRoot float64) {
	m := t.m
	codes := t.bins[0]
	nb := len(m.edges[0]) + 1
	t.fill1D(rows)
	recip := t.recip
	minChild := m.MinChildSamples

	// buildRange grows the subtree over bin range [lo, hi], which holds
	// cnt rows with gradient sum g.
	var buildRange func(lo, hi, depth, cnt int, g float64) int32
	buildRange = func(lo, hi, depth, cnt int, g float64) int32 {
		val := -g / (float64(cnt) + m.Lambda) * m.LearningRate
		self := int32(len(m.nodes) - t.base)
		m.nodes = append(m.nodes, bnode{feature: -1, value: val})
		if depth < m.MaxDepth && cnt >= 2*minChild {
			parent := g * g * recip[cnt]
			end := hi
			if end > nb-2 {
				end = nb - 2
			}
			bestGain, bestBin, bestGL, bestNL := t.sweep1D(lo, end, cnt, g, parent)
			if bestGain > 1e-12 {
				nd := &m.nodes[t.base+int(self)]
				nd.feature = 0
				nd.threshold = m.edges[0][bestBin]
				nd.bin = uint8(bestBin)
				l := buildRange(lo, bestBin, depth+1, bestNL, bestGL)
				r := buildRange(bestBin+1, hi, depth+1, cnt-bestNL, g-bestGL)
				m.nodes[t.base+int(self)].kids = [2]int32{l, r}
				return self
			}
		}
		// Leaf: every bin in the range resolves to this value.
		for c := lo; c <= hi; c++ {
			t.valTab[c] = val
		}
		return self
	}
	buildRange(0, nb-1, 0, len(rows), gRoot)

	// Apply the stage to its rows through the bin table and reset the
	// histogram for the next round.
	for _, i := range rows {
		t.pred[i] += t.valTab[codes[i]]
	}
	for c := 0; c < nb; c++ {
		t.hist[c] = histCell{}
	}
}

// fill1D builds the univariate stage's single histogram.
func (t *trainer) fill1D(rows []int32) {
	codes := t.bins[0]
	grad := t.grad
	for _, i := range rows {
		c := codes[i]
		t.hist[c].g += grad[i]
		t.hist[c].n++
	}
	t.stats.FillRows += uint64(len(rows))
	t.stats.DirectNodes++
}

// sweep1D finds the best split boundary over bin range [lo, end] of the
// univariate histogram, for a node holding cnt rows with gradient sum g.
func (t *trainer) sweep1D(lo, end, cnt int, g, parent float64) (bestGain float64, bestBin int, bestGL float64, bestNL int) {
	bestBin = -1
	recip := t.recip
	minChild := t.m.MinChildSamples
	var gl float64
	var nl int
	for c := lo; c <= end; c++ {
		cell := t.hist[c]
		if cell.n == 0 {
			continue
		}
		gl += cell.g
		nl += int(cell.n)
		nr := cnt - nl
		if nl >= minChild && nr >= minChild {
			gr := g - gl
			gn := gl*gl*recip[nl] + gr*gr*recip[nr] - parent
			if gn > bestGain {
				bestGain, bestBin, bestGL, bestNL = gn, c, gl, nl
			}
		}
	}
	return bestGain, bestBin, bestGL, bestNL
}

// build grows the subtree over segment [lo, hi) of the round's rows.
// g threads the segment's gradient sum down the recursion: the root
// computes it once, children receive the sums accumulated during the
// parent's partition pass — the same float sequence a per-node pass
// over the child's segment would produce. s is the node's materialized
// histogram on the slab path, nil on the direct path; build owns it and
// releases it (or hands it to a child via derivation) before returning.
func (t *trainer) build(lo, hi, depth int, g float64, s *gslab) int32 {
	m := t.m
	val := -g / (float64(hi-lo) + m.Lambda) * m.LearningRate
	self := int32(len(m.nodes) - t.base)
	m.nodes = append(m.nodes, bnode{feature: -1, value: val})

	if depth < m.MaxDepth && hi-lo >= 2*m.MinChildSamples {
		var feat int
		var bin uint8
		var gl, gain float64
		if s != nil {
			feat, bin, gl, gain = t.bestSplitSlab(s, lo, hi, g)
		} else {
			feat, bin, gl, gain = t.bestHistSplit(lo, hi, g)
		}
		if gain > 1e-12 {
			// The winning candidate's cumulative gradient sum IS the
			// left child's total (same row set, summed in bin order);
			// the right child gets the complement. Neither needs
			// another pass over the rows.
			gr := g - gl
			mid := t.partition(lo, hi, t.bins[feat], bin)
			if mid-lo >= m.MinChildSamples && hi-mid >= m.MinChildSamples {
				nd := &m.nodes[t.base+int(self)]
				nd.feature = int16(feat)
				// Raw-space threshold: the upper edge of the split
				// bin, so raw x ≤ edge routes left like bin ≤ b.
				nd.threshold = m.edges[feat][bin]
				nd.bin = bin
				var ls, rs *gslab
				if s != nil {
					ls, rs = t.childSlabs(s, lo, mid, hi, depth)
				}
				l := t.build(lo, mid, depth+1, gl, ls)
				r := t.build(mid, hi, depth+1, gr, rs)
				m.nodes[t.base+int(self)].kids = [2]int32{l, r}
				return self
			}
		}
	}
	// The node stays a leaf: its segment's rows take the leaf value
	// into their running prediction (bit-identical to walking the
	// finished tree, without the walk).
	t.releaseSlab(s)
	for _, i := range t.rows[lo:hi] {
		t.pred[i] += val
	}
	return self
}

// partition stably splits segment [lo, hi) of the round's rows around
// codes[i] <= bin and returns the boundary. The reorder is branchless:
// both target slots are written every row and the comparison only
// picks which counter advances — the near-50/50 split branch would
// mispredict half the segment.
func (t *trainer) partition(lo, hi int, codes []uint8, bin uint8) int {
	seg := t.rows[lo:hi]
	nl, nr := 0, 0
	for pos := 0; pos < len(seg); pos++ {
		i := seg[pos]
		isR := 0
		if codes[i] > bin {
			isR = 1
		}
		seg[nl] = i
		t.scratch[nr] = i
		nl += 1 - isR
		nr += isR
	}
	copy(seg[nl:], t.scratch[:nr])
	return lo + nl
}

// bestHistSplit scans per-feature histograms of segment [lo, hi) for
// the split with the best regularized gain. Only bins occupied by the
// segment are swept and reset, tracked in a 256-bit mask; sweeping
// occupied bins is exactly equivalent to the dense sweep because empty
// bins contribute zero mass and can never strictly improve the gain.
func (t *trainer) bestHistSplit(lo, hi int, gTot float64) (feature int, bin uint8, glBest, gain float64) {
	seg := t.rows[lo:hi]
	parent := gTot * gTot * t.recip[len(seg)]

	bestGain := 0.0
	bestFeat, bestBin := -1, uint8(0)
	bestGL := 0.0

	for f := 0; f < len(t.bins); f++ {
		if g, b, gl, hit := t.scanFeature(f, seg, gTot, parent, bestGain); hit {
			bestGain, bestFeat, bestBin, bestGL = g, f, b, gl
		}
	}
	t.stats.FillRows += uint64(len(seg)) * uint64(len(t.bins))
	t.stats.DirectNodes++
	if bestFeat < 0 {
		return 0, 0, 0, 0
	}
	return bestFeat, bestBin, bestGL, bestGain
}

// scanFeature histograms one feature over the segment and sweeps it for
// the boundary with the best regularized gain strictly exceeding the
// floor; hit=false when no boundary clears it. The histogram is left
// zeroed.
func (t *trainer) scanFeature(f int, seg []int32, gTot, parent, floor float64) (gain float64, bin uint8, glBest float64, hit bool) {
	m := t.m
	hist, mask := &t.hist, &t.mask
	bestGain := floor
	var bestBin uint8
	var bestGL float64

	grad := t.grad
	recip := t.recip
	minChild := m.MinChildSamples
	nb := len(m.edges[f]) + 1
	if nb < 2 {
		return bestGain, 0, 0, false
	}
	codes := t.bins[f]
	if len(seg)*2 >= nb {
		// Dense path: the segment touches most bins anyway, so the
		// occupancy mask costs more than it saves — fill without
		// mask maintenance, tracking only the occupied envelope
		// (tight for children of a split on the same feature), and
		// sweep it (empty bins add zero mass and can never
		// strictly improve the gain).
		cmin, cmax := 255, 0
		for _, i := range seg {
			c := int(codes[i])
			hist[c].g += grad[i]
			hist[c].n++
			if c < cmin {
				cmin = c
			}
			if c > cmax {
				cmax = c
			}
		}
		var gl float64
		var nl int
		for c := cmin; c <= cmax; c++ {
			cell := hist[c]
			if cell.n == 0 {
				continue
			}
			hist[c] = histCell{}
			if c > nb-2 {
				continue
			}
			gl += cell.g
			nl += int(cell.n)
			nr := len(seg) - nl
			if nl >= minChild && nr >= minChild {
				gr := gTot - gl
				g := gl*gl*recip[nl] + gr*gr*recip[nr] - parent
				if g > bestGain {
					bestGain = g
					bestBin = uint8(c)
					bestGL = gl
					hit = true
				}
			}
		}
		return bestGain, bestBin, bestGL, hit
	}
	// Sparse path: few rows over a wide bin range — track occupied
	// bins in a 256-bit mask and sweep only those.
	for _, i := range seg {
		c := codes[i]
		hist[c].g += grad[i]
		hist[c].n++
		mask[c>>6] |= 1 << (c & 63)
	}
	var gl float64
	var nl int
	for word := 0; word < 4; word++ {
		w := mask[word]
		for w != 0 {
			c := word<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			cell := hist[c]
			hist[c] = histCell{}
			if c <= nb-2 {
				gl += cell.g
				nl += int(cell.n)
				nr := len(seg) - nl
				if nl >= minChild && nr >= minChild {
					gr := gTot - gl
					g := gl*gl*recip[nl] + gr*gr*recip[nr] - parent
					if g > bestGain {
						bestGain = g
						bestBin = uint8(c)
						bestGL = gl
						hit = true
					}
				}
			}
		}
		mask[word] = 0
	}
	return bestGain, bestBin, bestGL, hit
}

// sampleFrom draws a without-replacement subsample of the given rows
// (at least 2 rows are kept so a split stays possible) into the
// trainer's reusable row buffer.
func (t *trainer) sampleFrom(rows []int32, fraction float64, rnd *rng.Source) []int32 {
	n := len(rows)
	k := int(float64(n) * fraction)
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	rnd.PermInto(t.permBuf)
	out := t.rows[:k]
	for i := 0; i < k; i++ {
		out[i] = rows[t.permBuf[i]]
	}
	slices.Sort(out)
	return out
}

// predictStageBinned walks one stage in bin space (training-time rows),
// reading the row's codes from the column-major binned matrix. The
// walk branches on the comparison — tree routing is skewed enough in
// practice that speculation ahead of the loads beats a serialized
// branch-free select.
func (m *Model) predictStageBinned(base int, bins [][]uint8, row int) float64 {
	nds := m.nodes[base:]
	i := int32(0)
	for {
		nd := &nds[i]
		if nd.feature < 0 {
			return nd.value
		}
		if bins[nd.feature][row] <= nd.bin {
			i = nd.kids[0]
		} else {
			i = nd.kids[1]
		}
	}
}

// predictStageRaw walks one stage's nodes in raw feature space
// (inference).
func predictStageRaw(nds []bnode, x []float64) float64 {
	i := int32(0)
	for {
		nd := &nds[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.kids[0]
		} else {
			i = nd.kids[1]
		}
	}
}

// Predict returns the boosted prediction for a raw feature vector.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted {
		panic("gbm: Predict before Fit")
	}
	if len(x) != m.width {
		panic(fmt.Sprintf("gbm: feature width %d, model width %d", len(x), m.width))
	}
	s := m.baseScore
	for t := 0; t+1 < len(m.stageStart); t++ {
		s += predictStageRaw(m.nodes[m.stageStart[t]:m.stageStart[t+1]], x)
	}
	return s
}

// PredictBatch evaluates the ensemble over all rows, iterating stages
// in the outer loop so one stage's nodes stay cache-hot across rows.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	if !m.fitted {
		panic("gbm: Predict before Fit")
	}
	out := make([]float64, len(x))
	for i, row := range x {
		if len(row) != m.width {
			panic(fmt.Sprintf("gbm: feature width %d, model width %d", len(row), m.width))
		}
		out[i] = m.baseScore
	}
	if m.width == 1 {
		// Univariate fast path (the paper's W = 0 models): the single
		// feature value lives in a register for the whole walk, so a
		// hop is one node load and one compare.
		for t := 0; t+1 < len(m.stageStart); t++ {
			nds := m.nodes[m.stageStart[t]:m.stageStart[t+1]]
			for r, row := range x {
				v := row[0]
				i := int32(0)
				for {
					nd := &nds[i]
					if nd.feature < 0 {
						out[r] += nd.value
						break
					}
					if v <= nd.threshold {
						i = nd.kids[0]
					} else {
						i = nd.kids[1]
					}
				}
			}
		}
		return out
	}
	for t := 0; t+1 < len(m.stageStart); t++ {
		nds := m.nodes[m.stageStart[t]:m.stageStart[t+1]]
		for r, row := range x {
			out[r] += predictStageRaw(nds, row)
		}
	}
	return out
}

// TreeCount returns the number of boosting stages fitted.
func (m *Model) TreeCount() int {
	if len(m.stageStart) == 0 {
		return 0
	}
	return len(m.stageStart) - 1
}
