// Package ingest is the live telemetry substrate of the deployed
// system: a concurrent, append-only store of per-vehicle daily-usage
// reports, the cloud-side sink the paper's telematics loop drains into
// (on-vehicle collectors → cloud store → prediction models). It
// replaces the seed architecture's "re-read a CSV from disk" source
// with batched POSTed telemetry:
//
//   - reports are idempotent upserts keyed by (vehicle, day): the same
//     batch delivered twice changes nothing, and out-of-order days are
//     tolerated — the store keeps each vehicle's days as one dense run
//     that grows at both ends, not a tail;
//   - every vehicle carries an FNV-1a content hash maintained
//     incrementally (XOR-folded per-day hashes, so an upsert adjusts
//     the hash in O(1) regardless of history length) — equal content
//     always yields an equal hash no matter the delivery order;
//   - a monotonic change sequence records which vehicles changed since
//     any point in time (DirtySince, DirtyCount, VehicleSeq), so retrain
//     policy can be data-driven instead of purely periodic, and a read
//     can tell whether the live generation covers a vehicle's latest
//     report; each vehicle's donor view (donorview.go) also records when
//     it last moved, so a cluster shard counts only what it reads;
//   - Fleet derives timeseries.VehicleSeries on demand from the stored
//     runs, making the store a drop-in engine.Source.
//
// Durability: a store opened with OpenDurable journals every accepted
// batch through an internal/wal log *before* UpsertBatch returns, and
// reconstructs itself at the next boot from its checkpoint plus a WAL
// replay — a kill -9 after an acknowledged batch loses nothing (see
// durable.go). New() remains the purely in-memory form.
//
// All methods are safe for concurrent use; reads (Fleet, Stats,
// DirtySince) take a shared lock and never block each other.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/telematics"
	"repro/internal/timeseries"
	"repro/internal/wal"
)

// Report is one per-vehicle daily usage report: the working seconds a
// vehicle accumulated on one calendar day. It is the unit the POST
// /telemetry endpoint batches.
type Report struct {
	// VehicleID identifies the reporting vehicle.
	VehicleID string
	// Date is the calendar day the usage belongs to (the time-of-day
	// part is ignored; the UTC date is the key).
	Date time.Time
	// Seconds is the working seconds on that day. Must be finite,
	// non-negative and at most dataprep.MaxDailySeconds — the on-vehicle
	// collector already aggregates to days, so anything outside that
	// range is a transport or sensor fault and is rejected.
	Seconds float64
}

// VehicleResult is the per-vehicle slice of a batch's accept/reject
// report.
type VehicleResult struct {
	// Accepted counts valid reports (including no-op re-deliveries).
	Accepted int `json:"accepted"`
	// Rejected counts invalid reports.
	Rejected int `json:"rejected"`
	// Changed counts accepted reports that actually altered stored
	// content (new day, or a day re-reported with a different value).
	Changed int `json:"changed"`
	// Errors lists the rejection reasons, one per rejected report.
	Errors []string `json:"errors,omitempty"`
}

// BatchResult is the outcome of one UpsertBatch: totals plus the
// per-vehicle accept/reject breakdown. Reports with an empty vehicle
// ID are keyed under "".
type BatchResult struct {
	Accepted int                       `json:"accepted"`
	Rejected int                       `json:"rejected"`
	Changed  int                       `json:"changed"`
	Vehicles map[string]*VehicleResult `json:"vehicles"`
	// Seq is the store's change sequence after the batch.
	Seq uint64 `json:"seq"`
}

// vehicleRecord is one vehicle's stored telemetry.
type vehicleRecord struct {
	// The days are one dense run, the layout Fleet and RawSeries hand
	// out: buf[i] holds the working seconds of epoch day base+i, and bit
	// i of present says that day was reported (a reported zero is not a
	// gap). The reported days span buf[lo:hi+1]; a gap, and the growth
	// slack around the span, hold 0 with the bit clear. n counts the
	// reported days; a stored vehicle has at least one.
	base    int64
	buf     []float64
	present []uint64
	lo, hi  int
	n       int
	// hash is the XOR fold of dayHash over every reported (day, seconds)
	// entry — an order-independent FNV-1a content hash that upserts
	// maintain incrementally.
	hash uint64
	// lastSeq is the store sequence of this vehicle's latest content
	// change.
	lastSeq uint64
	// The donor view (donorview.go): firstCycle is the length in days of
	// the first complete maintenance cycle, 0 while none has completed,
	// viewUnknown until a checkpoint-loaded record is touched; viewSeq is
	// the store sequence of the batch that last moved the view;
	// viewQueued says the running batch has queued the record for
	// settleViewsLocked.
	firstCycle int
	viewSeq    uint64
	viewQueued bool
	// reports counts accepted reports; lastReport is the wall-clock
	// receipt time of the latest one (observability only).
	reports    uint64
	lastReport time.Time
}

func (r *vehicleRecord) minDay() int64 { return r.base + int64(r.lo) }
func (r *vehicleRecord) maxDay() int64 { return r.base + int64(r.hi) }

// run returns the days from the first reported to the last, gaps 0. It
// aliases the record: callers copy it before releasing the store lock.
func (r *vehicleRecord) run() []float64 { return r.buf[r.lo : r.hi+1] }

// reported says whether buf[i] holds a reported day.
func (r *vehicleRecord) reported(i int) bool { return r.present[i>>6]&(1<<(i&63)) != 0 }

// at returns the seconds stored for day and whether day was reported.
func (r *vehicleRecord) at(day int64) (float64, bool) {
	i := day - r.base
	if i < 0 || i >= int64(len(r.buf)) || !r.reported(int(i)) {
		return 0, false
	}
	return r.buf[i], true
}

// put stores seconds for day, growing the run to reach it. It leaves
// hash and lastSeq to the caller.
func (r *vehicleRecord) put(day int64, seconds float64) {
	i := r.reach(day)
	if !r.reported(i) {
		r.present[i>>6] |= 1 << (i & 63)
		r.n++
	}
	r.buf[i] = seconds
	r.lo, r.hi = min(r.lo, i), max(r.hi, i)
}

// reach returns day's index in buf, first growing buf to cover it. buf
// grows by at least its own length toward the side the day lies on, so
// a fill in either direction — a backfill arrives in descending day
// order — costs amortized O(1) per day. Slots added in front come in
// whole bitmap words, so the bitmap copies as it is.
func (r *vehicleRecord) reach(day int64) int {
	if r.buf == nil {
		r.base = day
		r.buf, r.present = make([]float64, 1), make([]uint64, 1)
	}
	size := int64(len(r.buf))
	if i := day - r.base; i >= 0 && i < size {
		return int(i)
	}
	front, grown := int64(0), max(day-r.base+1, 2*size)
	if day < r.base {
		front = (max(r.base-day, size) + 63) &^ 63
		grown = size + front
	}
	buf := make([]float64, grown)
	copy(buf[front:], r.buf)
	present := make([]uint64, (grown+63)/64)
	copy(present[front>>6:], r.present)
	r.base -= front
	r.lo += int(front)
	r.hi += int(front)
	r.buf, r.present = buf, present
	return int(day - r.base)
}

// fold recomputes the content hash from the reported days.
func (r *vehicleRecord) fold() uint64 {
	var h uint64
	for w, word := range r.present {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			h ^= dayHash(r.base+int64(i), r.buf[i])
		}
	}
	return h
}

// Store is the concurrent telemetry store.
type Store struct {
	mu        sync.RWMutex
	vehicles  map[string]*vehicleRecord
	seq       uint64
	accepted  uint64
	rejected  uint64
	changed   uint64
	allowance float64

	// viewQueue and viewBefore are the running batch's donor-view
	// scratch (see queueViewLocked), guarded by mu.
	viewQueue  []queuedView
	viewBefore []float64

	// prepMu guards the prepared-vehicle cache. Lock ordering: prepMu
	// may be taken while holding mu (read side); never the reverse.
	prepMu     sync.Mutex
	prepCache  map[string]preparedEntry
	prepHits   uint64
	prepMisses uint64

	// Durability (nil/zero for a purely in-memory store; see durable.go).
	// journal is appended to under mu, so the WAL's record order is the
	// store's seq order. ckptMu serializes checkpoint writers and
	// guards the ckpt* fields. Lock ordering: ckptMu may be taken
	// before mu (CheckpointAndCompact holds it across the state copy);
	// NEVER acquire ckptMu while holding mu — that inverts against
	// CheckpointAndCompact and deadlocks behind a queued writer.
	journal   *wal.Log
	lastIndex uint64 // WAL index of the latest journaled batch

	ckptMu    sync.Mutex
	ckptIndex uint64 // WAL index the checkpoint covers
	ckptSeq   uint64
	ckptAt    time.Time
	ckptBytes int // size of the checkpoint file

	replayRecords    int
	replayDuration   time.Duration
	openDuration     time.Duration
	ckptLoadDuration time.Duration

	// batchHist distributes UpsertBatch sizes (reports per batch) — the
	// knob that decides whether ingest cost is dominated by per-batch or
	// per-report overhead.
	batchHist *obs.Histogram
}

// preparedEntry caches one vehicle's derived series keyed by the
// content hash it was derived from, making Fleet's source fetch
// O(changed vehicles): clean vehicles reuse their series across
// retrains instead of re-deriving them.
type preparedEntry struct {
	hash    uint64
	vehicle engine.Vehicle
}

// New returns an empty store whose derived series use the given
// per-cycle usage allowance T_v; allowance <= 0 selects the paper's
// default (timeseries.DefaultAllowance).
func New(allowance float64) *Store {
	if allowance <= 0 {
		allowance = timeseries.DefaultAllowance
	}
	return &Store{
		vehicles:  make(map[string]*vehicleRecord),
		allowance: allowance,
		batchHist: obs.NewHistogram(obs.SizeBuckets),
	}
}

// FNV-1a (64-bit) over one (day, seconds) entry. The per-vehicle
// content hash is the XOR of these over all stored entries, so it is
// independent of arrival order and adjustable in O(1) on upsert.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// dayHash is written out byte by byte: a loaded checkpoint folds every
// stored day, and the short straight-line body lets the CPU overlap
// the multiply chains of consecutive days.
func dayHash(day int64, seconds float64) uint64 {
	d, v := uint64(day), math.Float64bits(seconds)
	h := (fnvOffset64 ^ d&0xff) * fnvPrime64
	h = (h ^ d>>8&0xff) * fnvPrime64
	h = (h ^ d>>16&0xff) * fnvPrime64
	h = (h ^ d>>24&0xff) * fnvPrime64
	h = (h ^ d>>32&0xff) * fnvPrime64
	h = (h ^ d>>40&0xff) * fnvPrime64
	h = (h ^ d>>48&0xff) * fnvPrime64
	h = (h ^ d>>56) * fnvPrime64
	h = (h ^ v&0xff) * fnvPrime64
	h = (h ^ v>>8&0xff) * fnvPrime64
	h = (h ^ v>>16&0xff) * fnvPrime64
	h = (h ^ v>>24&0xff) * fnvPrime64
	h = (h ^ v>>32&0xff) * fnvPrime64
	h = (h ^ v>>40&0xff) * fnvPrime64
	h = (h ^ v>>48&0xff) * fnvPrime64
	return (h ^ v>>56) * fnvPrime64
}

// epochDay floors a time to its UTC calendar day number. Plain integer
// division would round toward zero for pre-1970 dates.
func epochDay(t time.Time) int64 {
	sec := t.Unix()
	day := sec / 86400
	if sec%86400 < 0 {
		day--
	}
	return day
}

// minReportDate bounds how far back a report may reach; together with
// the small future slack below it caps any vehicle's contiguous span,
// so a single fat-fingered date cannot permanently inflate the derived
// series (the store is append-only — there is no delete to recover
// with).
var minReportDate = time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC)

// futureSlack tolerates collector clock skew; telemetry reports past
// usage, so anything further ahead is a fault.
const futureSlack = 48 * time.Hour

// maxVehicleIDBytes bounds a vehicle ID: real fleet IDs are short, and
// the bound keeps both the journal's length-prefixed encoding and the
// donor-exchange wire format trivially safe.
const maxVehicleIDBytes = 256

// minReportDay is minReportDate as an epoch day: the wire format
// carries epoch days, so the date rules are defined on days and every
// door (JSON, binary-HTTP) enforces the identical bound.
var minReportDay = epochDay(minReportDate)

// Shared rejection reasons. The helpers below are the one set of
// reject rules every ingest door goes through; a report rejected on
// one door is rejected with the same error on all of them.
var (
	errEmptyVehicleID   = errors.New("empty vehicle id")
	errVehicleIDTooLong = fmt.Errorf("vehicle id longer than %d bytes", maxVehicleIDBytes)
	errMissingDate      = errors.New("missing or invalid date")
	errNonFiniteSeconds = errors.New("non-finite seconds")
)

// validateIDLen checks the vehicle-ID byte bound. Only the length
// matters, so one helper serves string IDs and wire byte slices alike
// without converting.
func validateIDLen(n int) error {
	switch {
	case n == 0:
		return errEmptyVehicleID
	case n > maxVehicleIDBytes:
		return errVehicleIDTooLong
	}
	return nil
}

// validateDay checks the report-date bounds on an epoch day.
func validateDay(day int64, now time.Time) error {
	switch {
	case day < minReportDay:
		return fmt.Errorf("date %s before the %s horizon", dayString(day), minReportDate.Format(dayLayout))
	case day > epochDay(now.Add(futureSlack)):
		return fmt.Errorf("date %s is in the future", dayString(day))
	}
	return nil
}

// validateSeconds checks the daily working-seconds range. The test
// passes every valid value and fails NaN, so it is one inlined range
// check that allocates nothing on every door and the replay.
func validateSeconds(sec float64) error {
	if sec >= 0 && sec <= dataprep.MaxDailySeconds {
		return nil
	}
	return secondsError(sec)
}

// secondsError says why sec is out of range.
func secondsError(sec float64) error {
	switch {
	case math.IsNaN(sec) || math.IsInf(sec, 0):
		return errNonFiniteSeconds
	case sec < 0:
		return fmt.Errorf("negative seconds %v", sec)
	}
	return fmt.Errorf("seconds %v exceed the physical daily maximum %v", sec, dataprep.MaxDailySeconds)
}

func dayString(day int64) string {
	return time.Unix(day*86400, 0).UTC().Format(dayLayout)
}

func validate(r Report, now time.Time) error {
	if err := validateIDLen(len(r.VehicleID)); err != nil {
		return err
	}
	if r.Date.IsZero() {
		return errMissingDate
	}
	if err := validateDay(epochDay(r.Date), now); err != nil {
		return err
	}
	return validateSeconds(r.Seconds)
}

// UpsertBatch applies one batch of reports. Validation is per report:
// invalid reports are rejected and reported, valid ones land — a batch
// is never rejected wholesale for one bad row. Re-delivering a batch is
// a no-op (accepted, zero changed, hashes and sequence untouched).
//
// On a durable store the batch is journaled through the WAL before
// UpsertBatch returns, so a returned result is a durable
// acknowledgement (under the configured fsync policy). A journaling
// failure returns the partially-acknowledged result alongside the
// error; the in-memory state holds the batch, but the caller must not
// ack it to the client — re-delivery after the fault is safe because
// upserts are idempotent.
func (s *Store) UpsertBatch(reports []Report) (BatchResult, error) {
	res := BatchResult{Vehicles: make(map[string]*VehicleResult)}
	now := time.Now()
	s.batchHist.Observe(float64(len(reports)))

	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		changed []journalReport
		// A batch lists a vehicle's days one after another: the result
		// entry and the record are resolved once per run of consecutive
		// same-vehicle reports, as UpsertBinary does per wire group.
		vr  *VehicleResult
		rec *vehicleRecord
	)
	for i, r := range reports {
		if i == 0 || r.VehicleID != reports[i-1].VehicleID {
			vr = res.Vehicles[r.VehicleID]
			if vr == nil {
				vr = &VehicleResult{}
				res.Vehicles[r.VehicleID] = vr
			}
			rec = nil
		}
		if err := validate(r, now); err != nil {
			vr.Rejected++
			vr.Errors = append(vr.Errors, err.Error())
			res.Rejected++
			s.rejected++
			continue
		}
		vr.Accepted++
		res.Accepted++
		s.accepted++
		if rec == nil {
			if rec = s.vehicles[r.VehicleID]; rec == nil {
				rec = &vehicleRecord{}
				s.vehicles[r.VehicleID] = rec
			}
		}
		day := epochDay(r.Date)
		if s.upsertDayLocked(rec, day, r.Seconds, now) {
			vr.Changed++
			res.Changed++
			s.changed++
			if s.journal != nil {
				changed = append(changed, journalReport{ID: r.VehicleID, Day: day, Seconds: r.Seconds})
			}
		}
	}
	s.settleViewsLocked()
	res.Seq = s.seq
	// Journal any batch that moved a counter — including an
	// all-rejected one, so the accept/reject accounting survives a
	// restart exactly (the record for a no-change batch is fixed-size).
	if s.journal != nil && res.Accepted+res.Rejected > 0 {
		idx, err := s.journal.Append(encodeJournalRecord(journalRecord{
			Accepted: uint32(res.Accepted),
			Rejected: uint32(res.Rejected),
			Changed:  changed,
		}))
		if err != nil {
			return res, fmt.Errorf("ingest: journaling batch: %w", err)
		}
		s.lastIndex = idx
	}
	return res, nil
}

// upsertDayLocked applies one validated (epoch day, seconds) report to
// an already-resolved vehicle record — the allocation-free inner step
// both batch paths drive, resolving the record once per wire group or
// run of same-vehicle reports instead of once per report. Callers hold
// the write lock and end the batch with settleViewsLocked.
func (s *Store) upsertDayLocked(rec *vehicleRecord, day int64, seconds float64, now time.Time) bool {
	rec.reports++
	rec.lastReport = now

	old, existed := rec.at(day)
	if existed && old == seconds {
		return false // idempotent re-delivery
	}
	if existed {
		rec.hash ^= dayHash(day, old)
	}
	if !rec.viewSafe(day) {
		s.queueViewLocked(rec, day)
	}
	rec.put(day, seconds)
	rec.hash ^= dayHash(day, seconds)
	s.seq++
	rec.lastSeq = s.seq
	return true
}

// Seq returns the store's change sequence: it increments on every
// content-changing upsert, so two equal Seq reads bracket a window in
// which no vehicle changed.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// DirtySince lists, sorted by ID, the vehicles whose content changed
// after the given sequence point; owns narrows the list as it does
// DirtyCount's. DirtySince(0, nil) lists every vehicle ever written.
func (s *Store) DirtySince(seq uint64, owns func(id string) bool) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []string
	for id, rec := range s.vehicles {
		if rec.readChanged(id, seq, owns) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// DirtyCount counts the vehicles whose content changed after the given
// sequence point, stopping at limit, and returns the store sequence it
// counted at: the retrain trigger's question ("have at least limit
// vehicles changed?") without DirtySince's list, sort and allocation. A
// store with no change since seq answers without scanning.
//
// owns, when set, narrows both to what a cluster shard owning those
// vehicles reads: a vehicle it owns that changed, and any other vehicle
// whose donor view changed (see donorview.go). nil counts every change.
func (s *Store) DirtyCount(seq uint64, limit int, owns func(id string) bool) (n int, at uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.seq <= seq {
		return 0, s.seq
	}
	for id, rec := range s.vehicles {
		if rec.readChanged(id, seq, owns) {
			if n++; n >= limit {
				break
			}
		}
	}
	return n, s.seq
}

// readChanged says whether rec changed after seq in a way that a
// consumer owning the vehicles owns reads; with owns nil, every change
// counts.
func (r *vehicleRecord) readChanged(id string, seq uint64, owns func(id string) bool) bool {
	return r.lastSeq > seq && (owns == nil || r.viewSeq > seq || owns(id))
}

// VehicleSeq returns the store sequence of a vehicle's latest content
// change and whether the vehicle exists: a generation built from a
// fetch that began at or after that sequence reflects the change.
func (s *Store) VehicleSeq(vehicleID string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.vehicles[vehicleID]
	if !ok {
		return 0, false
	}
	return rec.lastSeq, true
}

// Vehicles lists the stored vehicle IDs, sorted.
func (s *Store) Vehicles() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.vehicles))
	for id := range s.vehicles {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Hash returns a vehicle's incremental content hash and whether the
// vehicle exists.
func (s *Store) Hash(vehicleID string) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.vehicles[vehicleID]
	if !ok {
		return 0, false
	}
	return rec.hash, true
}

// RawSeries returns a vehicle's contiguous daily series — first
// reported day to last, unreported days zero — plus the series start.
// It is the exact run Fleet derives from, and the payload of the
// cluster donor-series exchange: a peer shard that prepares this series
// gets the bit-identical vehicle this shard's Fleet hands out.
func (s *Store) RawSeries(vehicleID string) (start time.Time, u []float64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.vehicles[vehicleID]
	if !ok {
		return time.Time{}, nil, false
	}
	return time.Unix(rec.minDay()*86400, 0).UTC(), append([]float64(nil), rec.run()...), true
}

// Fleet materializes the stored telemetry as engine vehicles: per
// vehicle, a contiguous daily series from its first to its last
// reported day (unreported days are zero — the vehicle did not work)
// and the §2 series timeseries.Derive computes from it. Every way into
// the store refuses the values §3's cleaning would repair, so the run
// is already clean and Derive of it equals dataprep.Prepare of it bit
// for bit. Fleet satisfies engine.Source, so an engine configured with
// Source: store.Fleet re-reads live telemetry on every retrain.
//
// Derivation is O(changed vehicles): each vehicle's derived series is
// cached keyed by its incremental content hash, so a retrain after one
// vehicle's telemetry update only re-derives that vehicle — every
// clean vehicle reuses its cached (immutable) series, and fetches
// that derive the same content concurrently (in-process shards at
// boot) hand out one series between them. Only the
// raw-series copy of dirty vehicles happens under the store lock; the
// derive runs outside it and keeps that copy as the series' U (the one
// copy of the run a fetch makes), so a retrain fetch never stalls
// concurrent telemetry writes for more than the copy. Each vehicle
// carries the store sequence of its latest change (engine.Vehicle.Seq),
// read under the same lock as its content.
func (s *Store) Fleet(ctx context.Context) ([]engine.Vehicle, error) {
	type rawVehicle struct {
		id     string
		hash   uint64
		seq    uint64
		start  time.Time
		u      timeseries.Series // nil when the cache already covers hash
		cached engine.Vehicle
	}

	s.mu.RLock()
	s.prepMu.Lock()
	raw := make([]rawVehicle, 0, len(s.vehicles))
	for id, rec := range s.vehicles {
		rv := rawVehicle{id: id, hash: rec.hash, seq: rec.lastSeq}
		if ent, ok := s.prepCache[id]; ok && ent.hash == rec.hash {
			rv.cached = ent.vehicle
			s.prepHits++
		} else {
			s.prepMisses++
			rv.start = time.Unix(rec.minDay()*86400, 0).UTC()
			rv.u = append(timeseries.Series(nil), rec.run()...)
		}
		raw = append(raw, rv)
	}
	s.prepMu.Unlock()
	s.mu.RUnlock()
	sort.Slice(raw, func(i, j int) bool { return raw[i].id < raw[j].id })

	out := make([]engine.Vehicle, 0, len(raw))
	for _, rv := range raw {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rv.u == nil {
			rv.cached.Seq = rv.seq
			out = append(out, rv.cached)
			continue
		}
		// rv.u is this fetch's own copy of the run: Derive it in place.
		vs, err := timeseries.DeriveOwned(rv.id, rv.u, s.allowance)
		if err != nil {
			return nil, fmt.Errorf("ingest: deriving vehicle %s: %w", rv.id, err)
		}
		v := engine.Vehicle{Series: vs, Start: rv.start}
		s.prepMu.Lock()
		if ent, ok := s.prepCache[rv.id]; ok && ent.hash == rv.hash {
			// A concurrent fetch derived the same run first: hand out its
			// series, so every fetch sees one pointer per content (the
			// engine's carry fast path) and this copy is dropped at once.
			v = ent.vehicle
		} else {
			if s.prepCache == nil {
				s.prepCache = make(map[string]preparedEntry)
			}
			s.prepCache[rv.id] = preparedEntry{hash: rv.hash, vehicle: v}
		}
		s.prepMu.Unlock()
		v.Seq = rv.seq
		out = append(out, v)
	}
	return out, nil
}

// SeedFromFleet loads a telematics fleet (e.g. a fleetgen CSV read back
// with telematics.ReadCSV) into the store as if its days had arrived as
// reports. Raw series are cleaned first (§3 step i), so corrupted
// exports — NaN gaps, negative glitches, >86400s duplicated
// transmissions — seed as valid content instead of being rejected
// report by report. CSV thereby becomes seed data; live telemetry takes
// over from there.
func (s *Store) SeedFromFleet(f *telematics.Fleet) (BatchResult, error) {
	var reports []Report
	for _, v := range f.Vehicles {
		clean, _ := dataprep.Clean(v.RawU)
		if err := dataprep.ValidateClean(clean); err != nil {
			return BatchResult{}, fmt.Errorf("ingest: seeding vehicle %s: %w", v.Profile.ID, err)
		}
		for t, sec := range clean {
			reports = append(reports, Report{
				VehicleID: v.Profile.ID,
				Date:      v.Start.AddDate(0, 0, t),
				Seconds:   sec,
			})
		}
	}
	return s.UpsertBatch(reports)
}

// VehicleStats is the observable state of one stored vehicle.
type VehicleStats struct {
	ID string `json:"id"`
	// Days is the number of days with a stored report; SpanDays the
	// contiguous first-to-last span the derived series covers.
	Days     int    `json:"days"`
	SpanDays int    `json:"span_days"`
	FirstDay string `json:"first_day"`
	LastDay  string `json:"last_day"`
	// Hash is the incremental FNV-1a content hash (hex).
	Hash string `json:"hash"`
	// Reports counts accepted reports; LastReport is the receipt time
	// of the latest.
	Reports    uint64 `json:"reports"`
	LastReport string `json:"last_report"`
}

// Stats is the store-wide observable state, served by GET
// /admin/ingest.
type Stats struct {
	Vehicles int    `json:"vehicles"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Changed  uint64 `json:"changed"`
	Seq      uint64 `json:"seq"`
	// PrepCacheHits / PrepCacheMisses count per-vehicle outcomes of
	// Fleet's prepared-series cache: a retrain after one dirty vehicle
	// should add fleet−1 hits and 1 miss.
	PrepCacheHits   uint64 `json:"prep_cache_hits"`
	PrepCacheMisses uint64 `json:"prep_cache_misses"`
	// WAL describes the journal of a durable store (nil when the store
	// is purely in-memory).
	WAL *WALStats `json:"wal,omitempty"`
	// PerVehicle is sorted by vehicle ID.
	PerVehicle []VehicleStats `json:"per_vehicle"`
}

// WALStats is the durability slice of Stats: the journal's segment
// state, fsync/replay/truncation history and the checkpoint the log is
// compacted against.
type WALStats struct {
	Dir      string `json:"dir"`
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"`
	// FirstIndex/LastIndex bound the records still in the log;
	// LastAppended is the newest record this store journaled.
	FirstIndex   uint64 `json:"first_index"`
	LastIndex    uint64 `json:"last_index"`
	LastAppended uint64 `json:"last_appended"`
	Appends      uint64 `json:"appends"`
	Rotations    uint64 `json:"rotations"`
	Fsyncs       uint64 `json:"fsyncs"`
	LastFsync    string `json:"last_fsync,omitempty"`
	// TruncatedTailEvents counts corrupt tail frames (and dropped
	// post-corruption segments) the last Open cut off.
	TruncatedTailEvents int `json:"truncated_tail_events"`
	// ReplayRecords/ReplaySeconds describe the boot-time WAL replay;
	// CheckpointLoadSeconds the boot-time checkpoint read, check and
	// install (and the one rewrite of a version 1 file); OpenSeconds is
	// the whole OpenDurable (checkpoint load, segment scan and replay).
	ReplayRecords         int     `json:"replay_records"`
	ReplaySeconds         float64 `json:"replay_seconds"`
	CheckpointLoadSeconds float64 `json:"checkpoint_load_seconds"`
	OpenSeconds           float64 `json:"open_seconds"`
	CompactedSegments     uint64  `json:"compacted_segments"`
	// CheckpointIndex/CheckpointSeq identify the WAL position and store
	// sequence the durable checkpoint covers (segments at or below the
	// index are compactable); CheckpointBytes is its file's size.
	CheckpointIndex uint64 `json:"checkpoint_index"`
	CheckpointSeq   uint64 `json:"checkpoint_seq"`
	CheckpointBytes int    `json:"checkpoint_bytes"`
	LastCheckpoint  string `json:"last_checkpoint,omitempty"`
}

const dayLayout = "2006-01-02"

// WriteMetrics renders the store's histograms — batch sizes plus, on a
// durable store, the journal's append/fsync latency — into w. The
// serve layer adds the gauge counterparts from Stats.
func (s *Store) WriteMetrics(w *obs.TextWriter) {
	w.Histogram("fleet_ingest_batch_reports",
		"Reports per UpsertBatch call (accepted or not).", "", s.batchHist)
	if s.journal != nil {
		s.journal.WriteMetrics(w)
	}
}

// Stats reports the store's current state.
func (s *Store) Stats() Stats {
	// The WAL/checkpoint slice is assembled before taking mu: it needs
	// ckptMu, which must never be acquired under mu (see the Store
	// lock-ordering comment). lastIndex/replay fields it reads are
	// stable outside boot; the snapshot is as consistent as any
	// concurrent-stats read can be.
	walStats := s.walStats()

	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Vehicles: len(s.vehicles),
		Accepted: s.accepted,
		Rejected: s.rejected,
		Changed:  s.changed,
		Seq:      s.seq,
		WAL:      walStats,
	}
	s.prepMu.Lock()
	st.PrepCacheHits, st.PrepCacheMisses = s.prepHits, s.prepMisses
	s.prepMu.Unlock()
	for id, rec := range s.vehicles {
		st.PerVehicle = append(st.PerVehicle, VehicleStats{
			ID:         id,
			Days:       rec.n,
			SpanDays:   rec.hi - rec.lo + 1,
			FirstDay:   dayString(rec.minDay()),
			LastDay:    dayString(rec.maxDay()),
			Hash:       fmt.Sprintf("%016x", rec.hash),
			Reports:    rec.reports,
			LastReport: rec.lastReport.UTC().Format(time.RFC3339),
		})
	}
	sort.Slice(st.PerVehicle, func(i, j int) bool { return st.PerVehicle[i].ID < st.PerVehicle[j].ID })
	return st
}
