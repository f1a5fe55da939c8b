package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// viewAllowance is the donor-view property test's T_v: a cycle takes
// about ten days of its reports, so first cycles complete, and get
// rewritten, often.
const viewAllowance = 200_000

// viewModel is the property test's copy of what the store holds: each
// vehicle's reported days by offset from day0.
type viewModel map[string]map[int]float64

func (m viewModel) span(id string) (lo, hi int) {
	lo, hi = math.MaxInt, math.MinInt
	for d := range m[id] {
		lo, hi = min(lo, d), max(hi, d)
	}
	return lo, hi
}

// view is the oracle: whether core categorizes the vehicle's derived
// series as old, and the days U[0:F] of its first cycle when it does.
func (m viewModel) view(t *testing.T, id string) (bool, []float64) {
	t.Helper()
	if len(m[id]) == 0 {
		return false, nil
	}
	lo, hi := m.span(id)
	run := make([]float64, hi-lo+1)
	for d, sec := range m[id] {
		run[d-lo] = sec
	}
	vs, err := timeseries.Derive(id, run, viewAllowance)
	if err != nil {
		t.Fatal(err)
	}
	if core.Categorize(vs) != core.Old {
		return false, nil
	}
	return true, run[:vs.Cycles[0].End]
}

func (m viewModel) ids() []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (m viewModel) apply(reports []Report) {
	for _, r := range reports {
		if m[r.VehicleID] == nil {
			m[r.VehicleID] = map[int]float64{}
		}
		m[r.VehicleID][int(epochDay(r.Date)-epochDay(day0))] = r.Seconds
	}
}

// viewBatch draws one batch mixing every kind of change that can, or
// cannot, move a donor view: tail days, corrections inside a first
// cycle (some reverted within the batch), gap fills and overwrites,
// reports before the first day, first-cycle completions, re-deliveries
// and new vehicles arriving with a full history.
func viewBatch(t *testing.T, rng *rand.Rand, m viewModel, next *int) []Report {
	// Mostly round values, so that a running sum often lands exactly on
	// the allowance.
	seconds := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 40_000
		}
		return float64(5_000 * rng.Intn(9))
	}
	var out []Report
	add := func(id string, day int, sec float64) { out = append(out, report(id, day, sec)) }
	ids := m.ids()
	for range 1 + rng.Intn(4) {
		kind := rng.Intn(8)
		if len(ids) == 0 {
			kind = 7
		}
		id := ""
		if len(ids) > 0 {
			id = ids[rng.Intn(len(ids))]
		}
		lo, hi := m.span(id)
		old, first := m.view(t, id)
		switch {
		case kind == 0: // tail days, sometimes past a gap
			for d := hi + 1 + rng.Intn(2); d <= hi+1+rng.Intn(3); d++ {
				add(id, d, seconds())
			}
		case kind == 1 && old: // a correction inside the first cycle
			add(id, lo+rng.Intn(len(first)), seconds())
		case kind == 2: // a gap fill or an overwrite anywhere in the run
			add(id, lo+rng.Intn(hi-lo+1), seconds())
		case kind == 3: // before the first reported day
			add(id, lo-1-rng.Intn(3), seconds())
		case kind == 4 && !old: // complete the first cycle at the tail
			for d := hi + 1; d <= hi+1+viewAllowance/40_000; d++ {
				add(id, d, 40_000)
			}
		case kind == 5 && old: // change a first-cycle day, then put it back
			d := lo + rng.Intn(len(first))
			if was, ok := m[id][d]; ok {
				add(id, d, was+1)
				add(id, d, was)
			}
		case kind == 6: // re-deliver a stored day
			d := lo + rng.Intn(hi-lo+1)
			if was, ok := m[id][d]; ok {
				add(id, d, was)
			}
		case kind == 7: // a new vehicle with its whole history
			*next++
			id, start := fmt.Sprintf("n%03d", *next), 200+rng.Intn(60)
			for d := start; d < start+3+rng.Intn(40); d++ {
				add(id, d, seconds())
			}
		}
	}
	return out
}

// viewStep is one applied batch: the store sequence after it and the
// vehicles whose donor view it moved.
type viewStep struct {
	seq   uint64
	moved []string
}

// ownsNone is a consumer that owns no vehicle: the changes it reads are
// exactly the donor-view moves.
func ownsNone(string) bool { return false }

// upsertViewBatch applies one batch through the JSON or the binary door
// and checks the store's donor-view signal for it against the oracle.
func upsertViewBatch(t *testing.T, s *Store, m viewModel, reports []Report, binary bool) viewStep {
	t.Helper()
	type view struct {
		old   bool
		first []float64
	}
	before := map[string]view{}
	for _, r := range reports {
		old, first := m.view(t, r.VehicleID)
		before[r.VehicleID] = view{old, first}
	}
	seq0 := s.Seq()
	var err error
	if binary {
		var payload []byte
		if payload, err = AppendWireBatch(nil, reports); err == nil {
			_, err = s.UpsertBinary(payload, 0)
		}
	} else {
		_, err = s.UpsertBatch(reports)
	}
	if err != nil {
		t.Fatal(err)
	}
	m.apply(reports)
	moved := []string{}
	for id, b := range before {
		old, first := m.view(t, id)
		if old != b.old || !slices.Equal(bitsOf(first), bitsOf(b.first)) {
			moved = append(moved, id)
		}
	}
	sort.Strings(moved)
	if got := orEmpty(s.DirtySince(seq0, ownsNone)); !reflect.DeepEqual(got, moved) {
		t.Fatalf("after %v:\ndonor views moved on %v, oracle %v", reports, got, moved)
	}
	return viewStep{seq: s.Seq(), moved: moved}
}

func bitsOf(u []float64) []uint64 {
	out := make([]uint64, len(u))
	for i, v := range u {
		out[i] = math.Float64bits(v)
	}
	return out
}

func orEmpty(ids []string) []string {
	if ids == nil {
		return []string{}
	}
	return ids
}

// checkViewHistory checks, for every step from the first on, that the
// vehicles whose donor view moved after it are the union of the later
// steps' moves.
func checkViewHistory(t *testing.T, label string, s *Store, steps []viewStep) {
	t.Helper()
	for k := range steps {
		want := map[string]bool{}
		for _, st := range steps[k+1:] {
			for _, id := range st.moved {
				want[id] = true
			}
		}
		wantIDs := []string{}
		for id := range want {
			wantIDs = append(wantIDs, id)
		}
		sort.Strings(wantIDs)
		if got := orEmpty(s.DirtySince(steps[k].seq, ownsNone)); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("%s: donor views moved after seq %d on %v, want %v", label, steps[k].seq, got, wantIDs)
		}
	}
}

// TestDonorViewProperty: random batches through both doors, then a
// checkpoint reopen, then a WAL replay. After every batch the vehicles
// the store says moved their donor view are exactly those whose
// Categorize(Derive(run)) or first-cycle bytes U[0:F] the batch
// changed; a checkpoint-loaded vehicle's first touch is not a move by
// itself; and a WAL replay reproduces the move sequence of every batch
// it replays.
func TestDonorViewProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			open := func() *Store {
				s, err := OpenDurable(viewAllowance, DurableOptions{Dir: dir, Fsync: wal.FsyncNever, SegmentBytes: 4096})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			m, next := viewModel{}, 0
			run := func(s *Store, n int) []viewStep {
				steps := []viewStep{{seq: s.Seq()}}
				for i := range n {
					steps = append(steps, upsertViewBatch(t, s, m, viewBatch(t, rng, m, &next), i%2 == 1))
				}
				return steps
			}

			s := open()
			checkViewHistory(t, "live", s, run(s, 40))
			if _, err := s.CheckpointAndCompact(); err != nil {
				t.Fatal(err)
			}
			s.Close()

			// Every record comes back from the checkpoint, its view
			// unknown until touched.
			s = open()
			if moved := s.DirtySince(0, ownsNone); len(moved) != 0 {
				t.Fatalf("a checkpoint load moved donor views: %v", moved)
			}
			steps := run(s, 40)
			checkViewHistory(t, "after the checkpoint reopen", s, steps)
			s.Close()

			// The checkpoint again, then a replay of the 40 batches after it.
			s = open()
			defer s.Close()
			checkViewHistory(t, "after the WAL replay", s, steps)
			checkViewHistory(t, "after the WAL replay, live", s, run(s, 20))
		})
	}
}
