package ml

import (
	"fmt"
	"sort"
	"sync"
)

// ColMatrix is an immutable column-major view of a design matrix, the
// shared substrate of the tree learners' split-finding engine. It is
// built once per training set and carries two lazily computed, cached
// derived representations:
//
//   - Order: per-feature row indices presorted by (value, row) — the
//     exact CART split finder partitions copies of these down the
//     tree, so no node ever sorts;
//   - Bin: per-feature ≤256-bucket quantile binnings (uint8 codes plus
//     raw-space upper edges) — the boosting histogram split finder
//     scans these in O(bins) per node.
//
// Both caches are safe for concurrent use, so one matrix can back many
// trees (a forest's bootstraps, every GBM boosting round, every grid
// configuration evaluated on one CV fold) without re-deriving anything.
type ColMatrix struct {
	n, p int
	cols [][]float64

	mu     sync.Mutex
	order  [][]int32
	binned map[int]*Binned
}

// Binned is one quantile-binned representation of a ColMatrix: the
// binned-row layout the histogram split engines train from. It is
// computed once per (matrix, resolution) and shared read-only by every
// tree of a forest, every GBM boosting round, and every grid-search
// configuration at the same resolution.
type Binned struct {
	// Cols holds one uint8 bin code per (feature, row), column-major.
	Cols [][]uint8
	// Edges holds the ascending raw-space upper edge of each bin per
	// feature: code(v) <= b  ⟺  v <= Edges[f][b]. A feature with k+1
	// bins has k edges; a constant feature has none.
	Edges [][]float64
	// Start[f] is feature f's offset into a flat per-node histogram
	// spanning all features back to back (feature f owns bins
	// [Start[f], Start[f+1])); Start[p] == Total. Flat offsets size a
	// node's histogram to the bins that exist (Σ len(Edges[f])+1)
	// rather than features×256, which is what makes whole-node slabs —
	// the unit the parent−sibling subtraction engine fills, derives and
	// pools — compact enough to keep O(depth) of them live per fit.
	Start []int
	// Total is the summed bin count across features, Start[p].
	Total int
}

// FeatureBins returns the number of bins of feature f.
func (b *Binned) FeatureBins(f int) int { return b.Start[f+1] - b.Start[f] }

// NewColMatrix validates x and copies it into column-major storage.
func NewColMatrix(x [][]float64) (*ColMatrix, error) {
	if len(x) == 0 {
		return nil, ErrNoData
	}
	p := len(x[0])
	if p == 0 {
		return nil, fmt.Errorf("ml: zero-width feature rows")
	}
	n := len(x)
	if n > 1<<31-1 {
		return nil, fmt.Errorf("ml: %d rows exceed the int32 row index space", n)
	}
	backing := make([]float64, n*p)
	cols := make([][]float64, p)
	for j := range cols {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("ml: ragged design matrix, row %d has width %d, want %d", i, len(row), p)
		}
		for j, v := range row {
			cols[j][i] = v
		}
	}
	return &ColMatrix{n: n, p: p, cols: cols}, nil
}

// Len returns the number of rows.
func (m *ColMatrix) Len() int { return m.n }

// Width returns the number of feature columns.
func (m *ColMatrix) Width() int { return m.p }

// Col returns feature column j. Callers must not mutate it.
func (m *ColMatrix) Col(j int) []float64 { return m.cols[j] }

// Order returns, per feature, the row indices sorted ascending by value
// with ties broken by row index. The result is computed once and cached;
// callers must not mutate it — learners that partition the orders down a
// tree work on copies.
func (m *ColMatrix) Order() [][]int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.order != nil {
		return m.order
	}
	backing := make([]int32, m.n*m.p)
	order := make([][]int32, m.p)
	for j := 0; j < m.p; j++ {
		ord := backing[j*m.n : (j+1)*m.n : (j+1)*m.n]
		for i := range ord {
			ord[i] = int32(i)
		}
		col := m.cols[j]
		sort.Slice(ord, func(a, b int) bool {
			va, vb := col[ord[a]], col[ord[b]]
			if va != vb {
				return va < vb
			}
			return ord[a] < ord[b]
		})
		order[j] = ord
	}
	m.order = order
	return order
}

// Bin returns the quantile binning of the matrix at the given
// resolution (clamped to [2, 256] bins). Edges follow the histogram-GBM
// recipe: midpoints between consecutive unique values at evenly spaced
// quantile positions, deduplicated, so equal training sets always bin
// identically. The result is cached per resolution.
func (m *ColMatrix) Bin(maxBins int) *Binned {
	if maxBins <= 1 || maxBins > 256 {
		maxBins = 256
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.binned[maxBins]; ok {
		binReuses.Add(1)
		return b
	}
	binBuilds.Add(1)
	b := &Binned{
		Cols:  make([][]uint8, m.p),
		Edges: make([][]float64, m.p),
		Start: make([]int, m.p+1),
	}
	backing := make([]uint8, m.n*m.p)
	vals := make([]float64, m.n) // sort scratch, reused across features
	for j := 0; j < m.p; j++ {
		edges := quantileEdges(m.cols[j], maxBins, vals)
		b.Edges[j] = edges
		codes := backing[j*m.n : (j+1)*m.n : (j+1)*m.n]
		for i, v := range m.cols[j] {
			codes[i] = BinOf(v, edges)
		}
		b.Cols[j] = codes
		b.Start[j+1] = b.Start[j] + len(edges) + 1
	}
	b.Total = b.Start[m.p]
	if m.binned == nil {
		m.binned = make(map[int]*Binned)
	}
	m.binned[maxBins] = b
	return b
}

// quantileEdges computes ≤ maxBins−1 ascending unique bin upper edges
// for one column. scratch must have the column's length; it is
// overwritten.
func quantileEdges(col []float64, maxBins int, scratch []float64) []float64 {
	vals := scratch[:len(col)]
	copy(vals, col)
	sort.Float64s(vals)
	// Deduplicate.
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= 1 {
		return nil // constant column: no edges, single bin
	}
	nEdges := maxBins - 1
	if nEdges > len(uniq)-1 {
		nEdges = len(uniq) - 1
	}
	edges := make([]float64, 0, nEdges)
	for k := 1; k <= nEdges; k++ {
		pos := k * len(uniq) / (nEdges + 1)
		if pos >= len(uniq)-1 {
			pos = len(uniq) - 2
		}
		// Midpoint between consecutive unique values, like exact CART.
		e := uniq[pos] + (uniq[pos+1]-uniq[pos])/2
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	return edges
}

// BinOf maps a raw value to its bin: the smallest k with v ≤ edges[k],
// or len(edges) when v exceeds every edge.
func BinOf(v float64, edges []float64) uint8 {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 255 {
		lo = 255
	}
	return uint8(lo)
}
