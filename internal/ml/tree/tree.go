// Package tree implements CART regression trees: binary trees grown by
// exhaustive variance-reduction splitting. Decision trees are the
// non-linear mapping the paper's random forest is built from.
//
// Splits are exact: each feature of the shared column-major matrix
// (ml.ColMatrix) is sorted once per matrix, and the per-feature orders
// are stably partitioned down the tree, so a node scan is O(F·n) with
// no per-node sorting or allocation. The grown tree is bit-identical to
// the retained naive reference (naive_test.go), which re-sorts at every
// node.
//
// Fits accept per-row multiplicities (weights), which lets a random
// forest share one presorted matrix across all bootstraps.
package tree

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// treeSeedMix decorrelates the tree's feature-subsampling stream from
// the raw user seed.
const treeSeedMix = 0x9e3779b97f4a7c15

// Config controls tree growth.
type Config struct {
	// MaxDepth bounds tree depth; 0 means unlimited. The root is depth 0.
	MaxDepth int
	// MinSamplesSplit is the minimum node size to attempt a split
	// (default 2).
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum size of each child (default 1).
	MinSamplesLeaf int
	// MaxFeatures is the number of candidate features examined per
	// split; 0 means all. Random forests set this below the feature
	// count to decorrelate trees.
	MaxFeatures int
	// Seed drives feature subsampling when MaxFeatures is active.
	Seed uint64
}

// Model is a fitted CART regression tree.
type Model struct {
	Config

	nodes       []node
	width       int
	importances []float64
	fitted      bool
}

// node is one tree node; leaves have feature == -1. kids[0] is the
// left (<=) child, kids[1] the right one.
type node struct {
	feature   int
	threshold float64
	kids      [2]int32
	value     float64
}

var _ ml.Regressor = (*Model)(nil)
var _ ml.MatrixFitter = (*Model)(nil)

// New returns a tree with the given config, applying defaults for unset
// minimums.
func New(cfg Config) *Model {
	if cfg.MinSamplesSplit < 2 {
		cfg.MinSamplesSplit = 2
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	return &Model{Config: cfg}
}

// Fit grows the tree on (x, y).
func (m *Model) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateXY(x, y); err != nil {
		return err
	}
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		return err
	}
	return m.fit(cm, y, nil)
}

// FitMatrix grows the tree from a prebuilt column matrix, reusing its
// cached presorted orders. The matrix is not mutated and may be shared
// concurrently.
func (m *Model) FitMatrix(cm *ml.ColMatrix, y []float64) error {
	return m.FitWeighted(cm, y, nil)
}

// FitWeighted grows the tree with per-row multiplicities: w[i] counts
// how many times row i occurs (0 excludes it). A nil w means every row
// once. Weighted growth mirrors fitting on the materialized multiset —
// node sizes, leaf means and split gains use Σw — which lets a forest
// train every bootstrap from one shared matrix.
func (m *Model) FitWeighted(cm *ml.ColMatrix, y []float64, w []float64) error {
	if cm.Len() != len(y) {
		return fmt.Errorf("tree: %d rows but %d targets", cm.Len(), len(y))
	}
	if w != nil {
		if len(w) != cm.Len() {
			return fmt.Errorf("tree: %d rows but %d weights", cm.Len(), len(w))
		}
		var total float64
		for i, wi := range w {
			if wi < 0 || math.IsNaN(wi) || math.IsInf(wi, 0) {
				return fmt.Errorf("tree: invalid weight %v at row %d", wi, i)
			}
			if wi != math.Trunc(wi) {
				return fmt.Errorf("tree: weight %v at row %d is not an integer multiplicity", wi, i)
			}
			if wi > math.MaxInt32 {
				return fmt.Errorf("tree: weight %v at row %d exceeds the largest multiplicity %d", wi, i, math.MaxInt32)
			}
			total += wi
		}
		if total == 0 {
			return fmt.Errorf("tree: all-zero weights")
		}
	}
	return m.fit(cm, y, w)
}

// fit checks the configuration and grows the tree.
func (m *Model) fit(cm *ml.ColMatrix, y []float64, w []float64) error {
	if m.MaxFeatures < 0 {
		return fmt.Errorf("tree: negative MaxFeatures %d", m.MaxFeatures)
	}
	m.fitExact(cm, y, w)
	return nil
}

// Importances returns the per-feature importance: total SSE reduction
// contributed by splits on each feature, normalized to sum to 1 (all
// zeros when the tree is a single leaf). The slice is a copy.
func (m *Model) Importances() ([]float64, error) {
	if !m.fitted {
		return nil, fmt.Errorf("tree: Importances before Fit")
	}
	out := make([]float64, len(m.importances))
	copy(out, m.importances)
	var total float64
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out, nil
}

// Predict routes x through the tree to a leaf value.
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted {
		panic("tree: Predict before Fit")
	}
	if len(x) != m.width {
		panic(fmt.Sprintf("tree: feature width %d, model width %d", len(x), m.width))
	}
	i := int32(0)
	for {
		nd := &m.nodes[i]
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

// PredictBatch evaluates the tree over all rows.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// PredictSumInto adds the tree's prediction for each row into out —
// the ensemble accumulation path, hoisting the per-call checks out of
// the row loop. len(out) must equal len(x).
func (m *Model) PredictSumInto(x [][]float64, out []float64) {
	if !m.fitted {
		panic("tree: Predict before Fit")
	}
	nodes := m.nodes
	if m.width == 1 {
		// Univariate fast path (the paper's W = 0 models): the single
		// feature value lives in a register for the whole walk.
		for r, row := range x {
			if len(row) != 1 {
				panic(fmt.Sprintf("tree: feature width %d, model width 1", len(row)))
			}
			v := row[0]
			i := int32(0)
			for {
				nd := &nodes[i]
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
		return
	}
	for r, row := range x {
		if len(row) != m.width {
			panic(fmt.Sprintf("tree: feature width %d, model width %d", len(row), m.width))
		}
		i := int32(0)
		for {
			nd := &nodes[i]
			if nd.feature < 0 {
				out[r] += nd.value
				break
			}
			if row[nd.feature] <= nd.threshold {
				i = nd.kids[0]
			} else {
				i = nd.kids[1]
			}
		}
	}
}

// NodeCount returns the number of nodes in the fitted tree.
func (m *Model) NodeCount() int { return len(m.nodes) }

// Depth returns the depth of the fitted tree (root = 0, empty = -1).
func (m *Model) Depth() int {
	if len(m.nodes) == 0 {
		return -1
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		nd := &m.nodes[i]
		if nd.feature < 0 {
			return 0
		}
		l, r := walk(nd.kids[0]), walk(nd.kids[1])
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}
