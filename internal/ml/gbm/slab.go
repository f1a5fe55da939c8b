package gbm

import (
	"sync"
	"time"
)

// The boosting engine's parent−sibling subtraction path: a node's
// gradient histogram over every feature is materialized once in a
// pooled flat slab; after the node splits, only the smaller child is
// refilled from rows and the larger child derives cell-by-cell as
// parent − sibling, in place in the parent's slab. A boosting stage's
// fill work per level drops from all rows × features to the smaller
// halves.
//
// Exactness: per-bin row counts subtract exactly (int32),
// directly-filled slabs accumulate and sweep in the same sequences as
// scanFeature and therefore choose bit-identical splits, and derived
// gradient sums can drift in the last ulps — which is why every gate
// below is a pure function of segment sizes and config, making the
// fitted ensemble deterministic. Child gradient totals and leaf values
// are threaded down the recursion (never read back from histograms), so
// they come out of the same arithmetic on either path.
var (
	// histSlabMinRows is the stage row count at which a round engages
	// the slab engine; smaller rounds keep the per-candidate fill path
	// (and stay bit-identical to it).
	histSlabMinRows = 1024
	// histSubtractMinRows is the larger-child segment size worth
	// deriving by subtraction; smaller subtrees fall back to the direct
	// path. Tests move this gate to force or forbid subtraction.
	histSubtractMinRows = 512
)

// histStatsTimingMinRows bounds fill/subtract wall-clock sampling to
// segments big enough to dwarf the clock reads.
const histStatsTimingMinRows = 2048

// gslab is one node's materialized gradient histogram: per-bin gradient
// sums and row counts for every feature, flat at the binned layout's
// Start offsets, plus per-feature occupied envelopes ([lo,hi]; lo > hi
// marks an empty feature). Slabs are pooled per trainer and zeroed on
// release, so steady-state node work allocates nothing and at most
// O(depth) slabs are live per stage.
type gslab struct {
	g  []float64
	n  []int32
	lo []int32
	hi []int32
}

// slabRecycler keeps released slabs alive across fits, so repeated
// boosting fits over same-shaped data — the steady state of a fleet
// retrain — reallocate slab memory only after a GC cycle drains the
// pool. The release invariant (all cells in [0, cap) zero, envelopes
// (1, 0)) holds inductively across reslicing, so a recycled slab is
// indistinguishable from a fresh allocation.
var slabRecycler sync.Pool

// recycledSlab pops a cross-fit pooled slab reshaped to this fit's
// binned layout, or nil (pool empty or backing arrays too small).
func recycledSlab(total, p int) *gslab {
	v := slabRecycler.Get()
	if v == nil {
		return nil
	}
	s := v.(*gslab)
	if cap(s.g) < total || cap(s.lo) < p {
		return nil
	}
	s.g = s.g[:total]
	s.n = s.n[:total]
	s.lo = s.lo[:p]
	s.hi = s.hi[:p]
	return s
}

// recycleSlabs hands the trainer's free list to the cross-fit pool;
// called once per fit after the last stage releases its slabs.
func (t *trainer) recycleSlabs() {
	for _, s := range t.slabFree {
		slabRecycler.Put(s)
	}
	t.slabFree = nil
}

// acquireSlab pops a zeroed slab from the pool or allocates one.
func (t *trainer) acquireSlab() *gslab {
	if n := len(t.slabFree); n > 0 {
		s := t.slabFree[n-1]
		t.slabFree = t.slabFree[:n-1]
		return s
	}
	p := len(t.bins)
	if s := recycledSlab(t.bn.Total, p); s != nil {
		return s
	}
	s := &gslab{
		g:  make([]float64, t.bn.Total),
		n:  make([]int32, t.bn.Total),
		lo: make([]int32, p),
		hi: make([]int32, p),
	}
	for f := range s.lo {
		s.lo[f], s.hi[f] = 1, 0
	}
	return s
}

// releaseSlab zeroes the slab's occupied envelopes and pools it. nil is
// allowed (direct-path nodes carry no slab).
func (t *trainer) releaseSlab(s *gslab) {
	if s == nil {
		return
	}
	for f := range s.lo {
		if s.lo[f] > s.hi[f] {
			continue
		}
		start := t.bn.Start[f]
		for i := start + int(s.lo[f]); i <= start+int(s.hi[f]); i++ {
			s.g[i] = 0
			s.n[i] = 0
		}
		s.lo[f], s.hi[f] = 1, 0
	}
	t.slabFree = append(t.slabFree, s)
}

// fillSlab directly fills the slab over segment [lo, hi) of the round's
// rows: every feature in one pass each, in segment row order — the
// exact accumulation sequence scanFeature produces.
func (t *trainer) fillSlab(s *gslab, lo, hi int) {
	rows := hi - lo
	timed := rows >= histStatsTimingMinRows
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	p := len(t.bins)
	for f := 0; f < p; f++ {
		t.fillSlabFeature(s, f, lo, hi)
	}
	t.stats.FillRows += uint64(rows) * uint64(p)
	t.stats.DirectNodes++
	for f := 0; f < p; f++ {
		if s.lo[f] <= s.hi[f] {
			t.stats.FillCells += uint64(s.hi[f]-s.lo[f]) + 1
		}
	}
	if timed {
		t.stats.FillNanos += uint64(time.Since(t0))
	}
}

// fillSlabFeature accumulates one feature's gradient histogram over the
// segment and records its occupied envelope.
func (t *trainer) fillSlabFeature(s *gslab, f, lo, hi int) {
	start := t.bn.Start[f]
	nb := t.bn.FeatureBins(f)
	gs := s.g[start : start+nb : start+nb]
	ns := s.n[start : start+nb : start+nb]
	codes := t.bins[f]
	grad := t.grad
	cmin, cmax := nb, -1
	for _, i := range t.rows[lo:hi] {
		c := int(codes[i])
		gs[c] += grad[i]
		ns[c]++
		if c < cmin {
			cmin = c
		}
		if c > cmax {
			cmax = c
		}
	}
	s.lo[f], s.hi[f] = int32(cmin), int32(cmax)
}

// deriveSlab turns the parent's slab into the larger child's histogram
// by subtracting the directly-filled smaller sibling over each
// feature's parent envelope. Counts subtract exactly; a cell whose
// derived count hits zero has its gradient sum zeroed explicitly (the
// release-time zero invariant, and bit-identical to a direct fill's
// empty cell).
func (t *trainer) deriveSlab(parent, small *gslab, timed bool) {
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
		start := t.bn.Start[f]
		elo, ehi := -1, -1
		for c := pl; c <= ph; c++ {
			i := start + c
			pn := parent.n[i] - small.n[i]
			parent.n[i] = pn
			if pn == 0 {
				parent.g[i] = 0
				continue
			}
			parent.g[i] -= small.g[i]
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
	t.stats.SubtractCells += cells
	t.stats.DerivedNodes++
	if timed {
		t.stats.SubtractNanos += uint64(time.Since(t0))
	}
}

// childSlabs decides, after a slab node's split, how each child gets
// its histogram: the smaller by direct fill, the larger derived as
// parent − sibling (consuming the parent's slab); children that cannot
// split (depth or 2·MinChildSamples) are skipped and segments below the
// subtraction gate drop to the direct path (nil slab). The decision
// depends only on segment sizes and config.
func (t *trainer) childSlabs(s *gslab, lo, mid, hi, depth int) (ls, rs *gslab) {
	m := t.m
	depthOK := depth+1 < m.MaxDepth
	minRows := 2 * m.MinChildSamples
	expandL := depthOK && mid-lo >= minRows
	expandR := depthOK && hi-mid >= minRows
	if !expandL && !expandR {
		t.releaseSlab(s)
		return nil, nil
	}
	smallLo, smallHi, largeRows := lo, mid, hi-mid
	expandSmall, expandLarge := expandL, expandR
	leftSmall := mid-lo <= hi-mid
	if !leftSmall {
		smallLo, smallHi, largeRows = mid, hi, mid-lo
		expandSmall, expandLarge = expandR, expandL
	}
	switch {
	case expandLarge && largeRows >= histSubtractMinRows:
		small := t.acquireSlab()
		t.fillSlab(small, smallLo, smallHi)
		t.deriveSlab(s, small, largeRows >= histStatsTimingMinRows)
		if !expandSmall {
			t.releaseSlab(small)
			small = nil
		}
		if leftSmall {
			return small, s
		}
		return s, small
	case expandSmall && smallHi-smallLo >= histSubtractMinRows:
		small := t.acquireSlab()
		t.fillSlab(small, smallLo, smallHi)
		t.releaseSlab(s)
		if leftSmall {
			return small, nil
		}
		return nil, small
	default:
		t.releaseSlab(s)
		return nil, nil
	}
}

// bestSplitSlab sweeps the node's materialized histogram for the best
// regularized gain — no refilling. Sweep order, gain arithmetic and the
// strict-> rule are identical to scanFeature's dense and sparse paths
// (which agree with each other), so a directly-filled slab node chooses
// the exact same split as the legacy engine.
func (t *trainer) bestSplitSlab(s *gslab, lo, hi int, gTot float64) (feature int, bin uint8, glBest, gain float64) {
	cnt := hi - lo
	parent := gTot * gTot * t.recip[cnt]
	bestGain := 0.0
	bestFeat, bestBin := -1, uint8(0)
	bestGL := 0.0
	for f := 0; f < len(t.bins); f++ {
		if g, b, gl, hit := t.sweepSlabFeature(s, f, cnt, gTot, parent, bestGain); hit {
			bestGain, bestFeat, bestBin, bestGL = g, f, b, gl
		}
	}
	if bestFeat < 0 {
		return 0, 0, 0, 0
	}
	return bestFeat, bestBin, bestGL, bestGain
}

// sweepSlabFeature runs the cumulative gain sweep over one feature's
// occupied envelope in the slab: ascending bins, empty cells skipped,
// the last bin excluded from accumulation exactly like scanFeature's
// c > nb−2 skip. The slab is read-only — it must survive for the
// children's derivation.
func (t *trainer) sweepSlabFeature(s *gslab, f, cnt int, gTot, parent, floor float64) (gain float64, bin uint8, glBest float64, hit bool) {
	bestGain := floor
	elo, ehi := int(s.lo[f]), int(s.hi[f])
	if elo > ehi {
		return bestGain, 0, 0, false
	}
	nb := t.bn.FeatureBins(f)
	if nb < 2 {
		return bestGain, 0, 0, false
	}
	start := t.bn.Start[f]
	t.stats.SweepCells += uint64(ehi-elo) + 1
	recip := t.recip
	minChild := t.m.MinChildSamples
	var bestBin uint8
	var bestGL, gl float64
	var nl int
	for c := elo; c <= ehi; c++ {
		n := s.n[start+c]
		if n == 0 {
			continue
		}
		if c > nb-2 {
			continue
		}
		gl += s.g[start+c]
		nl += int(n)
		nr := cnt - nl
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
