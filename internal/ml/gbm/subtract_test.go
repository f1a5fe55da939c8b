package gbm

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
)

// setGBMGates overrides the slab engine's size gates for a test and
// restores them afterwards.
func setGBMGates(t *testing.T, slabMin, subMin int) {
	t.Helper()
	oldSlab, oldSub := histSlabMinRows, histSubtractMinRows
	histSlabMinRows, histSubtractMinRows = slabMin, subMin
	t.Cleanup(func() { histSlabMinRows, histSubtractMinRows = oldSlab, oldSub })
}

// slabDataset draws a dataset large enough for stage trees to engage
// the slab engine (histSlabMinRows) with subtraction below the root.
func slabDataset(n, p int, seed uint64) ([][]float64, []float64) {
	rnd := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			if j%2 == 0 {
				x[i][j] = float64(rnd.Intn(32)) / 4
			} else {
				x[i][j] = rnd.Float64() * 10
			}
		}
		y[i] = 3*x[i][0] - 2*x[i][1%p] + rnd.NormFloat64()
	}
	return x, y
}

func ensemblesEqual(t *testing.T, label string, a, b *Model) {
	t.Helper()
	if len(a.nodes) != len(b.nodes) {
		t.Fatalf("%s: %d nodes vs %d", label, len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			t.Fatalf("%s: node %d: %+v != %+v", label, i, a.nodes[i], b.nodes[i])
		}
	}
	if len(a.stageStart) != len(b.stageStart) {
		t.Fatalf("%s: %d stages vs %d", label, len(a.stageStart)-1, len(b.stageStart)-1)
	}
}

// TestGBMSlabDirectPathBitIdenticalToLegacy pins the boosting slab
// machinery: with subtraction gated off, every slab is directly filled
// and the fitted ensemble must be bit-identical to the per-candidate
// scanFeature path — same accumulation row order, same sweep sequence,
// same strict-> tie-break, for any gradient values.
func TestGBMSlabDirectPathBitIdenticalToLegacy(t *testing.T) {
	x, y := slabDataset(3000, 4, 17)
	for _, cfg := range []Config{
		{NEstimators: 8, MaxDepth: 7, Seed: 3},
		{NEstimators: 6, MaxDepth: 5, Seed: 3, Subsample: 0.7},
	} {
		setGBMGates(t, 1<<30, 1<<30) // legacy everywhere
		legacy := New(cfg)
		if err := legacy.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		setGBMGates(t, 1, 1<<30) // slabs everywhere, subtraction nowhere
		slab := New(cfg)
		if err := slab.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		ensemblesEqual(t, "direct slab vs legacy", legacy, slab)
	}
}

// TestGSlabDeriveMatchesDirect is the slab-level property test: derive
// a child as parent − sibling and compare against filling that child
// directly. Counts must match bitwise always; with integer gradients
// every sum is exact, so the gradient cells must match bitwise too —
// including constant columns (single-bin features) and heavy ties.
func TestGSlabDeriveMatchesDirect(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rnd := rng.New(uint64(41000 + trial))
		n := 1500 + rnd.Intn(1500)
		p := 1 + rnd.Intn(4)
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, p)
			for j := range x[i] {
				switch {
				case j == 0 && p > 1:
					x[i][j] = 1.5 // constant column
				case j%2 == 0:
					x[i][j] = float64(rnd.Intn(6)) // ties
				default:
					x[i][j] = rnd.Float64() * 10
				}
			}
		}
		y := make([]float64, n)
		cm, err := ml.NewColMatrix(x)
		if err != nil {
			t.Fatal(err)
		}
		bn := cm.Bin(256)
		tr := &trainer{bn: bn, bins: bn.Cols, grad: make([]float64, n), rows: make([]int32, n)}
		for i := range tr.grad {
			tr.grad[i] = float64(rnd.Intn(41) - 20) // integer gradients: sums exact
		}
		for i := range tr.rows {
			tr.rows[i] = int32(i)
		}
		_ = y

		mid := n/3 + rnd.Intn(n/3)
		parent := tr.acquireSlab()
		tr.fillSlab(parent, 0, n)
		small := tr.acquireSlab()
		tr.fillSlab(small, 0, mid)
		tr.deriveSlab(parent, small, false) // parent is now rows [mid, n)
		direct := tr.acquireSlab()
		tr.fillSlab(direct, mid, n)

		for f := 0; f < p; f++ {
			if parent.lo[f] != direct.lo[f] || parent.hi[f] != direct.hi[f] {
				t.Fatalf("trial %d feature %d: derived envelope [%d,%d] != direct [%d,%d]",
					trial, f, parent.lo[f], parent.hi[f], direct.lo[f], direct.hi[f])
			}
			start := bn.Start[f]
			for c := 0; c < bn.FeatureBins(f); c++ {
				if parent.n[start+c] != direct.n[start+c] {
					t.Fatalf("trial %d feature %d bin %d: derived count %d != direct %d",
						trial, f, c, parent.n[start+c], direct.n[start+c])
				}
				if parent.g[start+c] != direct.g[start+c] {
					t.Fatalf("trial %d feature %d bin %d: derived gradient sum %v != direct %v (integer gradients must subtract exactly)",
						trial, f, c, parent.g[start+c], direct.g[start+c])
				}
			}
		}
	}
}

// TestGBMStageHistWorkAllocationFree pins the slab pool: once warm, a
// stage's per-node histogram work — acquire, fill, derive, release —
// allocates nothing.
func TestGBMStageHistWorkAllocationFree(t *testing.T) {
	x, _ := slabDataset(4096, 4, 5)
	cm, err := ml.NewColMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	bn := cm.Bin(256)
	n := cm.Len()
	tr := &trainer{bn: bn, bins: bn.Cols, grad: make([]float64, n), rows: make([]int32, n)}
	for i := range tr.grad {
		tr.grad[i] = float64(i%7) - 3
	}
	for i := range tr.rows {
		tr.rows[i] = int32(i)
	}
	cycle := func() {
		parent := tr.acquireSlab()
		tr.fillSlab(parent, 0, n)
		small := tr.acquireSlab()
		tr.fillSlab(small, 0, n/3)
		tr.deriveSlab(parent, small, false)
		tr.releaseSlab(small)
		tr.releaseSlab(parent)
	}
	cycle() // warm the pool
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("per-node histogram work allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestUnivariateFastPathMatchesGeneralLarge: the univariate stage
// builder must predict bit-identically to the general path (reached by
// adding a constant column) on rounds big enough for the general path
// to run on the slab engine.
func TestUnivariateFastPathMatchesGeneralLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large dataset")
	}
	x1, y := slabDataset(6000, 1, 29)
	x2 := make([][]float64, len(x1))
	for i, row := range x1 {
		x2[i] = []float64{row[0], 42}
	}
	uni, gen := New(Config{NEstimators: 12, MaxDepth: 6, Seed: 9}), New(Config{NEstimators: 12, MaxDepth: 6, Seed: 9})
	if err := uni.Fit(x1, y); err != nil {
		t.Fatal(err)
	}
	if err := gen.Fit(x2, y); err != nil {
		t.Fatal(err)
	}
	pu, pg := uni.PredictBatch(x1), gen.PredictBatch(x2)
	for i := range pu {
		if pu[i] != pg[i] {
			t.Fatalf("row %d: univariate %v, general %v", i, pu[i], pg[i])
		}
	}
}

// TestGBMSlabRecyclerInvariant pins the boosting engine's cross-fit
// slab recycler: pooled slabs are zeroed to capacity with empty
// envelopes, the shape guard drops undersized slabs, and a fit
// consuming recycled slabs is bit-identical to a fresh-allocation fit.
func TestGBMSlabRecyclerInvariant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	setGBMGates(t, 128, 64)
	x, y := slabDataset(2500, 4, 9)
	cfg := Config{NEstimators: 6, MaxDepth: 6, Seed: 5}
	for slabRecycler.Get() != nil { // isolate from earlier tests' fits
	}
	first := New(cfg)
	if err := first.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var pooled []*gslab
	for {
		v := slabRecycler.Get()
		if v == nil {
			break
		}
		pooled = append(pooled, v.(*gslab))
	}
	if len(pooled) == 0 {
		t.Fatal("slab-path boosting fit recycled no slabs")
	}
	for si, s := range pooled {
		g, n := s.g[:cap(s.g)], s.n[:cap(s.n)]
		for i := range g {
			if g[i] != 0 || n[i] != 0 {
				t.Fatalf("pooled slab %d dirty at cell %d: g=%v n=%v", si, i, g[i], n[i])
			}
		}
		lo, hi := s.lo[:cap(s.lo)], s.hi[:cap(s.hi)]
		for f := range lo {
			if lo[f] != 1 || hi[f] != 0 {
				t.Fatalf("pooled slab %d envelope %d not reset: [%d,%d]", si, f, lo[f], hi[f])
			}
		}
	}
	slabRecycler.Put(pooled[0])
	if s := recycledSlab(cap(pooled[0].g)+1, len(pooled[0].lo)); s != nil {
		t.Fatal("recycledSlab returned a slab smaller than the requested layout")
	}
	slabRecycler.Put(pooled[0])
	if s := recycledSlab(1, 1); s == nil {
		t.Fatal("recycledSlab rejected a big-enough pooled slab")
	} else if len(s.g) != 1 || len(s.n) != 1 || len(s.lo) != 1 || len(s.hi) != 1 {
		t.Fatalf("recycledSlab did not reshape: g=%d n=%d lo=%d hi=%d", len(s.g), len(s.n), len(s.lo), len(s.hi))
	}
	for _, s := range pooled {
		slabRecycler.Put(s)
	}
	second := New(cfg)
	if err := second.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	ensemblesEqual(t, "recycled-slab fit vs fresh", first, second)
}
