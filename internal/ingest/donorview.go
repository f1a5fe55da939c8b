package ingest

import "math"

// A stored vehicle's donor view is all a cluster shard that does not own
// it reads of it: cluster.PartitionSource hands such a shard only the
// old vehicles, donor-only, and core reads only a donor's first
// maintenance cycle. The view is therefore (is the vehicle old?, the
// days U[0:F] of its first complete cycle). An old vehicle reporting
// another day leaves it as it is; a first cycle completing (a donor
// joining the pool) or a rewritten day inside one moves it. The store
// keeps, per record, the sequence of the batch that last moved it, so
// a shard's retrain trigger (DirtyCount with an owns filter) counts only
// the changes its next build can see.
//
// Cost: a change at or after an old vehicle's first cycle is O(1). Any
// other change — inside the first cycle, before the first reported day,
// or to a vehicle with no complete cycle — queues the vehicle, once per
// batch, with a copy of its first cycle as the batch found it. The end
// of the batch rescans each queued vehicle's first cycle once,
// accumulating exactly as timeseries.DeriveOwned does, and compares.

// viewUnknown is the firstCycle of a record loaded from a checkpoint:
// its first cycle is found on first touch, and finding it is no change.
const viewUnknown = -1

// maxViewScratch bounds the queue scratch a store keeps between batches.
const maxViewScratch = 1 << 16

// queuedView is a vehicle awaiting settleViewsLocked; its first cycle as
// the batch found it is Store.viewBefore[off : off+rec.firstCycle].
type queuedView struct {
	rec *vehicleRecord
	off int
}

// firstCycleEnd is F, the length of u's first complete maintenance
// cycle, or 0 when none completes: the first day the running sum reaches
// the allowance closes it, summed in DeriveOwned's order so the two
// agree bit for bit.
func firstCycleEnd(u []float64, allowance float64) int {
	var cum float64
	for t, v := range u {
		if cum += v; cum >= allowance {
			return t + 1
		}
	}
	return 0
}

// viewSafe says a change to day cannot move rec's donor view, or rec is
// already queued in this batch: the O(1) test every changing upsert
// makes.
func (r *vehicleRecord) viewSafe(day int64) bool {
	return r.viewQueued || r.firstCycle > 0 && day >= r.minDay()+int64(r.firstCycle)
}

// queueViewLocked queues rec for settleViewsLocked before a change to
// day lands on it, unless the change cannot move its view. Callers hold
// the write lock and have seen viewSafe fail.
func (s *Store) queueViewLocked(rec *vehicleRecord, day int64) {
	if rec.firstCycle == viewUnknown {
		rec.firstCycle = firstCycleEnd(rec.run(), s.allowance)
		if rec.viewSafe(day) {
			return
		}
	}
	rec.viewQueued = true
	off := len(s.viewBefore)
	if rec.firstCycle > 0 {
		s.viewBefore = append(s.viewBefore, rec.run()[:rec.firstCycle]...)
	}
	s.viewQueue = append(s.viewQueue, queuedView{rec: rec, off: off})
}

// settleViewsLocked ends a batch: each queued vehicle whose donor view
// the batch moved takes the batch's sequence as its viewSeq. Callers
// hold the write lock.
func (s *Store) settleViewsLocked() {
	for i, q := range s.viewQueue {
		rec := q.rec
		u := rec.run()
		first := firstCycleEnd(u, s.allowance)
		if first != rec.firstCycle || !sameBits(u[:first], s.viewBefore[q.off:q.off+first]) {
			rec.viewSeq = s.seq
		}
		rec.firstCycle, rec.viewQueued = first, false
		s.viewQueue[i] = queuedView{}
	}
	s.viewQueue, s.viewBefore = s.viewQueue[:0], s.viewBefore[:0]
	if cap(s.viewBefore) > maxViewScratch {
		s.viewBefore = nil
	}
	if cap(s.viewQueue) > maxViewScratch {
		s.viewQueue = nil
	}
}

// sameBits compares two runs bit for bit, as the donor pool key does.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
