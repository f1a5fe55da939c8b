// Durable store: the WAL-backed form of the telemetry store.
//
// OpenDurable wires a Store to an internal/wal log in one directory:
//
//   - every accepted UpsertBatch appends one journal record (the
//     batch's accept/reject totals plus the reports that changed
//     content) to the WAL under the store lock, before the batch is
//     acknowledged — WAL order is seq order;
//   - at the next boot the store reconstructs itself by loading the
//     checkpoint (a flat, CRC-checked file holding each vehicle's dense
//     run of days, its hash and the counters; see checkpoint.go) and
//     replaying every journal record past it, restoring Seq, the
//     per-vehicle content hashes and the counters exactly as they were
//     at the last acknowledged batch. The checkpoint's records are
//     installed as decoded, with no copy. Replay costs O(WAL bytes) and
//     allocates nothing per report: the log streams through one
//     buffered reader, and each record is applied in place by one
//     validating walk under a single store lock, with the hashes
//     recomputed once per changed vehicle at the end;
//   - CheckpointAndCompact — called from the engine's snapshot
//     persistence hook, i.e. once a model generation is safely on disk
//     — encodes the store's current state straight from its records
//     under the read lock, atomically replaces the checkpoint outside
//     it, and deletes every WAL segment the new checkpoint covers, so
//     the log's size tracks the telemetry arrived since the last
//     persisted generation, not all time. Nothing else checkpoints: a
//     store whose owner never persists a generation (a fleetserver
//     with -wal-dir but no -snapshot-dir) keeps its whole journal and
//     replays all of it at every boot.
//
// Restore ordering at boot is snapstore-restore → WAL-replay →
// incremental reconcile retrain: the rebooted engine serves its
// persisted generation immediately, the store holds every acknowledged
// report, and the reconcile retrain (cheap: model-key comparison
// reuses every vehicle the snapshot already covers) folds in whatever
// the WAL had beyond the snapshot. A crash therefore loses nothing and
// never forces a cold train.
//
// A durable store is seeded (SeedFromFleet) only when it recovered
// empty: re-seeding a recovered store would revert every acknowledged
// correction of a seed day.
package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/wal"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir holds the WAL segments and the checkpoint file.
	Dir string
	// Fsync is the journal's append durability policy (see wal): with
	// wal.FsyncAlways an acknowledged batch survives kill -9.
	Fsync wal.FsyncPolicy
	// FsyncEvery is the wal.FsyncInterval cadence (0 = wal default).
	FsyncEvery time.Duration
	// SegmentBytes is the WAL rotation threshold (0 = wal default).
	SegmentBytes int64
}

// OpenDurable opens (creating if needed) a WAL-backed store in dir and
// reconstructs its content: checkpoint first, then a replay of every
// journal record past it. The returned store behaves exactly like an
// in-memory one except that UpsertBatch journals before acknowledging.
func OpenDurable(allowance float64, opts DurableOptions) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ingest: OpenDurable with an empty directory")
	}
	t0 := time.Now()
	log, err := wal.Open(opts.Dir, wal.Options{
		SegmentBytes: opts.SegmentBytes,
		Fsync:        opts.Fsync,
		FsyncEvery:   opts.FsyncEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if err := removeStaleCheckpointTemps(opts.Dir); err != nil {
		log.Close()
		return nil, err
	}
	s := New(allowance)
	s.journal = log

	tLoad := time.Now()
	path := filepath.Join(opts.Dir, checkpointFile)
	ck, version, size, err := loadCheckpoint(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		log.Close()
		return nil, err
	}
	if ck != nil {
		if version != ckptVersion {
			// Version 1 is read once: rewrite it in the current layout,
			// covering exactly what it covered.
			data := encodeCheckpoint(ck)
			if err := writeCheckpoint(path, data); err != nil {
				log.Close()
				return nil, err
			}
			size = len(data)
		}
		s.restoreCheckpoint(ck, size)
	}
	s.ckptLoadDuration = time.Since(tLoad)

	// Nothing else holds the store yet: one lock section covers the
	// whole replay.
	t1 := time.Now()
	s.mu.Lock()
	r := journalReplay{s: s, now: t1, seq0: s.seq}
	ckptIndex := s.ckptIndex
	records := 0
	err = log.Replay(func(idx uint64, payload []byte) error {
		if idx <= ckptIndex {
			return nil // already reflected in the checkpoint
		}
		if err := r.apply(payload); err != nil {
			return fmt.Errorf("ingest: journal record %d: %w", idx, err)
		}
		s.lastIndex = idx
		records++
		return nil
	})
	r.finish()
	s.mu.Unlock()
	if err != nil {
		log.Close()
		return nil, err
	}
	s.replayRecords = records
	s.replayDuration = time.Since(t1)
	s.openDuration = time.Since(t0)
	if last := log.LastIndex(); last > s.lastIndex {
		// Records the tail scan skipped (covered by the checkpoint)
		// still advance the append cursor.
		s.lastIndex = last
	}
	return s, nil
}

// restoreCheckpoint installs a loaded checkpoint, its records as
// decoded, as the store's state.
func (s *Store) restoreCheckpoint(ck *checkpoint, size int) {
	s.mu.Lock()
	s.seq = ck.seq
	s.accepted = ck.accepted
	s.rejected = ck.rejected
	s.changed = ck.changed
	s.vehicles = ck.vehicles
	s.lastIndex = ck.walIndex
	s.mu.Unlock()
	// ckptMu strictly after mu is released (ckptMu-before-mu ordering).
	s.ckptMu.Lock()
	s.ckptIndex = ck.walIndex
	s.ckptSeq = ck.seq
	s.ckptAt = ck.savedAt
	s.ckptBytes = size
	s.ckptMu.Unlock()
}

// journalReplay applies journal records to a store in place, as one
// validating walk per record: no record is decoded into an intermediate
// form, and nothing is allocated per report. Each report's day and
// seconds are checked against the bounds the doors and the checkpoint
// enforce, so a record no door could have written fails the open
// instead of landing a value the next checkpoint load would refuse.
// The reports are replayed in journal (= seq) order, so applying them
// verbatim reproduces the exact post-batch state: same runs, same
// hashes, same Seq. Callers hold s.mu for the whole replay and call
// finish once at its end.
type journalReplay struct {
	s   *Store
	now time.Time
	// seq0 is the store sequence before the replay: finish rebuilds the
	// derived fields of exactly the vehicles whose lastSeq passed it.
	seq0 uint64
	// lastID/last cache the latest resolved vehicle — a batch journals
	// its reports grouped by vehicle. lastID is a copy: the payload
	// buffer is reused by the next record.
	lastID []byte
	last   *vehicleRecord
}

// apply walks one journal record (see encodeJournalRecord) and applies
// it, settling donor views at its end as the batch it journals did. A
// malformed record returns an error after applying a prefix of it;
// OpenDurable then discards the whole store, so the prefix is never
// observed.
func (r *journalReplay) apply(payload []byte) error {
	if len(payload) < journalHead || payload[0] != journalVersion {
		return fmt.Errorf("bad journal record header")
	}
	s := r.s
	s.accepted += uint64(binary.LittleEndian.Uint32(payload[1:]))
	s.rejected += uint64(binary.LittleEndian.Uint32(payload[5:]))
	count := binary.LittleEndian.Uint32(payload[9:])
	off := journalHead
	for i := uint32(0); i < count; i++ {
		if len(payload)-off < 2 {
			return fmt.Errorf("truncated journal record")
		}
		idLen := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if len(payload)-off < idLen+16 {
			return fmt.Errorf("truncated journal record")
		}
		id := payload[off : off+idLen]
		off += idLen
		day := int64(binary.LittleEndian.Uint64(payload[off:]))
		seconds := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
		off += 16
		if day < minReportDay || day > maxStoredDay {
			return fmt.Errorf("journal record day %d out of range", day)
		}
		if err := validateSeconds(seconds); err != nil {
			return fmt.Errorf("journal record day %d: %w", day, err)
		}

		rec := r.last
		if rec == nil || !bytes.Equal(id, r.lastID) {
			// string(id) as a map key does not allocate on lookup.
			rec = s.vehicles[string(id)]
			if rec == nil {
				rec = &vehicleRecord{}
				s.vehicles[string(id)] = rec
			}
			rec.lastReport = r.now
			r.last = rec
			r.lastID = append(r.lastID[:0], id...)
		}
		// upsertDayLocked minus the hash, which finish recomputes once
		// per vehicle.
		rec.reports++
		if old, ok := rec.at(day); ok && old == seconds {
			continue // idempotent re-delivery
		}
		if !rec.viewSafe(day) {
			s.queueViewLocked(rec, day)
		}
		rec.put(day, seconds)
		s.seq++
		rec.lastSeq = s.seq
		s.changed++
	}
	s.settleViewsLocked()
	if off != len(payload) {
		return fmt.Errorf("journal record has %d trailing bytes", len(payload)-off)
	}
	return nil
}

// finish recomputes the content hash of every vehicle the replay
// changed. The hash is an XOR fold, so folding the final run equals the
// incremental per-upsert updates exactly.
func (r *journalReplay) finish() {
	for _, rec := range r.s.vehicles {
		if rec.lastSeq > r.seq0 {
			rec.hash = rec.fold()
		}
	}
}

// CheckpointResult reports what CheckpointAndCompact did.
type CheckpointResult struct {
	// WALIndex/Seq identify the covered position.
	WALIndex uint64
	Seq      uint64
	// SegmentsRemoved counts the WAL segments the new checkpoint made
	// compactable.
	SegmentsRemoved int
}

// CheckpointAndCompact spills the store's full state to the checkpoint
// file (atomic temp+fsync+rename) and deletes every WAL segment the
// new checkpoint covers. Call it only when the content the checkpoint
// covers is otherwise safe to rely on — the fleetserver calls it from
// the snapshot-persistence hook, i.e. exactly when a model generation
// has been spilled, which is the compaction gate the WAL documents: a
// segment is removed only once it is fully reflected in a persisted
// snapshot generation's checkpoint.
func (s *Store) CheckpointAndCompact() (CheckpointResult, error) {
	if s.journal == nil {
		return CheckpointResult{}, fmt.Errorf("ingest: CheckpointAndCompact on an in-memory store")
	}
	// Serialize checkpoint writers. ckptMu is held across the state
	// copy below — the permitted ckptMu-before-mu order; the reverse
	// nesting is forbidden everywhere (see the Store lock comment).
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Nothing journaled since the last checkpoint: it already covers the
	// store, so skip the rewrite and its fsyncs. Every shard over a
	// shared store checkpoints after its own spill, so a generation that
	// publishes on all of them lands here once per shard.
	s.mu.RLock()
	index, seq := s.lastIndex, s.seq
	s.mu.RUnlock()
	if !s.ckptAt.IsZero() && index == s.ckptIndex && seq == s.ckptSeq {
		return CheckpointResult{WALIndex: index, Seq: seq}, nil
	}

	// Make sure every journaled record the checkpoint will cover is on
	// disk before the checkpoint claims to cover it.
	if err := s.journal.Sync(); err != nil {
		return CheckpointResult{}, fmt.Errorf("ingest: %w", err)
	}

	// Encode straight from the records under the read lock; write,
	// fsync and rename outside it.
	s.mu.RLock()
	ck := checkpoint{
		walIndex: s.lastIndex,
		seq:      s.seq,
		accepted: s.accepted,
		rejected: s.rejected,
		changed:  s.changed,
		savedAt:  time.Now(),
		vehicles: s.vehicles,
	}
	data := encodeCheckpoint(&ck)
	s.mu.RUnlock()

	if err := writeCheckpoint(filepath.Join(s.journal.Dir(), checkpointFile), data); err != nil {
		return CheckpointResult{}, err
	}
	s.ckptIndex = ck.walIndex
	s.ckptSeq = ck.seq
	s.ckptAt = ck.savedAt
	s.ckptBytes = len(data)

	removed, err := s.journal.CompactThrough(ck.walIndex)
	if err != nil {
		return CheckpointResult{}, fmt.Errorf("ingest: %w", err)
	}
	return CheckpointResult{WALIndex: ck.walIndex, Seq: ck.seq, SegmentsRemoved: removed}, nil
}

// Durable reports whether the store journals through a WAL.
func (s *Store) Durable() bool { return s.journal != nil }

// Close syncs and closes the journal (no-op for an in-memory store).
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// walStats assembles the WAL stats slice. It takes ckptMu and then a
// short mu read section itself, so callers must hold NEITHER (the
// ckptMu-before-mu ordering; see the Store lock comment). Returns nil
// for an in-memory store.
func (s *Store) walStats() *WALStats {
	if s.journal == nil {
		return nil
	}
	ws := s.journal.Stats()
	out := &WALStats{
		Dir:                 s.journal.Dir(),
		Segments:            ws.Segments,
		Bytes:               ws.Bytes,
		FirstIndex:          ws.FirstIndex,
		LastIndex:           ws.LastIndex,
		Appends:             ws.Appends,
		Rotations:           ws.Rotations,
		Fsyncs:              ws.Fsyncs,
		TruncatedTailEvents: ws.TruncatedTailEvents,
		CompactedSegments:   ws.CompactedSegments,
	}
	if !ws.LastFsync.IsZero() {
		out.LastFsync = ws.LastFsync.UTC().Format(time.RFC3339Nano)
	}
	s.ckptMu.Lock()
	out.CheckpointIndex = s.ckptIndex
	out.CheckpointSeq = s.ckptSeq
	out.CheckpointBytes = s.ckptBytes
	if !s.ckptAt.IsZero() {
		out.LastCheckpoint = s.ckptAt.UTC().Format(time.RFC3339Nano)
	}
	s.ckptMu.Unlock()
	s.mu.RLock()
	out.LastAppended = s.lastIndex
	out.ReplayRecords = s.replayRecords
	out.ReplaySeconds = s.replayDuration.Seconds()
	out.OpenSeconds = s.openDuration.Seconds()
	out.CheckpointLoadSeconds = s.ckptLoadDuration.Seconds()
	s.mu.RUnlock()
	return out
}

// --- journal record codec ----------------------------------------------------

// journalReport is one content-changing report as journaled: the
// epoch day is stored directly, so replay bypasses date parsing and
// validation entirely.
type journalReport struct {
	ID      string
	Day     int64
	Seconds float64
}

// journalRecord is one accepted batch as journaled: the accept/reject
// totals (restoring the observability counters exactly) plus only the
// reports that changed content — idempotent re-deliveries add a
// fixed-size record, not a copy of the batch.
type journalRecord struct {
	Accepted uint32
	Rejected uint32
	Changed  []journalReport
}

const (
	journalVersion = 1
	// journalHead is the fixed record prefix: version, accepted,
	// rejected and report count.
	journalHead = 1 + 4 + 4 + 4
)

// encodeJournalRecord is a compact, deterministic little-endian
// encoding (gob would spend most of the record on type metadata).
func encodeJournalRecord(rec journalRecord) []byte {
	n := 1 + 4 + 4 + 4
	for _, jr := range rec.Changed {
		n += 2 + len(jr.ID) + 8 + 8
	}
	buf := make([]byte, n)
	buf[0] = journalVersion
	off := 1
	binary.LittleEndian.PutUint32(buf[off:], rec.Accepted)
	binary.LittleEndian.PutUint32(buf[off+4:], rec.Rejected)
	binary.LittleEndian.PutUint32(buf[off+8:], uint32(len(rec.Changed)))
	off += 12
	for _, jr := range rec.Changed {
		binary.LittleEndian.PutUint16(buf[off:], uint16(len(jr.ID)))
		off += 2
		off += copy(buf[off:], jr.ID)
		binary.LittleEndian.PutUint64(buf[off:], uint64(jr.Day))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(jr.Seconds))
		off += 16
	}
	return buf
}
