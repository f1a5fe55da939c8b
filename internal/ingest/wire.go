// The binary telemetry wire format: the line-rate counterpart of the
// JSON POST /telemetry body, carried as exactly one WAL frame
// (internal/wal's length+CRC framing — one codec serves disk and
// network) whose payload groups reports by vehicle:
//
//	payload  version byte (1) | uint32 group count
//	group    uint16 id length | id bytes |
//	         uint32 report count | count × report
//	report   int64 epoch day | float64 seconds bits
//
// (all integers little-endian, matching the journal's record codec)
//
// Grouping amortizes the vehicle ID across its days and — because a
// group is a contiguous byte range — lets the cluster router split a
// batch across ring owners by copying raw group bytes, no decode/
// re-encode round trip (see serve's router).
//
// Structure errors (truncation, bad counts, trailing bytes, a wrong
// version) reject a batch wholesale, exactly like malformed JSON;
// per-report validation (ID bound, date bounds, seconds range) rejects
// individual reports through the same shared helpers as UpsertBatch,
// so every door enforces identical rules with identical errors.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/wal"
)

// ContentTypeBinary is the Content-Type that switches POST /telemetry
// from JSON to the binary frame format.
const ContentTypeBinary = "application/x-fleet-telemetry"

// WireVersion is the binary batch payload version this build speaks.
const WireVersion = 1

const (
	// wireReportSize is the fixed per-report encoding: epoch day plus
	// seconds bits.
	wireReportSize = 8 + 8
	// wireBatchHead is the payload prefix: version byte + group count.
	wireBatchHead = 1 + 4
	// wireGroupHead is the fixed part of a group header: id length +
	// report count (the id bytes sit between them).
	wireGroupHead = 2 + 4
)

// Wire structure errors: any of these rejects the batch wholesale,
// before a single report is applied.
var (
	// ErrWireVersion marks a payload whose version byte this build does
	// not speak.
	ErrWireVersion = errors.New("ingest: unsupported wire version")
	// ErrWireTruncated marks a payload that ends inside a group or
	// report.
	ErrWireTruncated = errors.New("ingest: truncated wire batch")
	// ErrWireTrailing marks bytes left over after the declared groups.
	ErrWireTrailing = errors.New("ingest: trailing bytes after wire batch")
	// ErrWireIDLen marks a report whose vehicle ID cannot be encoded
	// (longer than a uint16 length prefix can carry).
	ErrWireIDLen = errors.New("ingest: vehicle id too long for the wire format")
	// ErrBatchTooLarge marks a wire batch whose report count exceeds
	// the caller's limit; like structure errors it rejects wholesale
	// before anything is applied.
	ErrBatchTooLarge = errors.New("ingest: wire batch exceeds the report limit")
)

// AppendWireBatch appends the unframed binary encoding of reports to
// dst. Consecutive reports for the same vehicle share one group, so a
// collector that batches per vehicle (or sorts by it) pays the ID once
// per batch. Reports are encoded as-is — including ones the store will
// reject — so validation stays a store concern, not an encoder one;
// only an ID too long for the uint16 length prefix fails the encode.
func AppendWireBatch(dst []byte, reports []Report) ([]byte, error) {
	start := len(dst)
	dst = append(dst, WireVersion, 0, 0, 0, 0)
	groups := uint32(0)
	var countAt int // offset of the open group's report-count field
	var openID string
	for i, r := range reports {
		if len(r.VehicleID) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: %d bytes", ErrWireIDLen, len(r.VehicleID))
		}
		if i == 0 || r.VehicleID != openID {
			var idLen [2]byte
			binary.LittleEndian.PutUint16(idLen[:], uint16(len(r.VehicleID)))
			dst = append(dst, idLen[0], idLen[1])
			dst = append(dst, r.VehicleID...)
			countAt = len(dst)
			dst = append(dst, 0, 0, 0, 0)
			openID = r.VehicleID
			groups++
		}
		var rec [wireReportSize]byte
		binary.LittleEndian.PutUint64(rec[0:8], uint64(epochDay(r.Date)))
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(r.Seconds))
		dst = append(dst, rec[:]...)
		binary.LittleEndian.PutUint32(dst[countAt:], binary.LittleEndian.Uint32(dst[countAt:])+1)
	}
	binary.LittleEndian.PutUint32(dst[start+1:], groups)
	return dst, nil
}

// EncodeWireFrame encodes reports as one framed wire batch — the exact
// bytes an HTTP binary body carries.
func EncodeWireFrame(reports []Report) ([]byte, error) {
	payload, err := AppendWireBatch(make([]byte, 0, wireBatchSize(reports)), reports)
	if err != nil {
		return nil, err
	}
	return wal.AppendFrame(make([]byte, 0, wal.FrameSize(len(payload))), payload), nil
}

// wireBatchSize upper-bounds the unframed encoding of reports (exact
// when every report opens at most one group).
func wireBatchSize(reports []Report) int {
	n := wireBatchHead
	for _, r := range reports {
		n += wireGroupHead + len(r.VehicleID) + wireReportSize
	}
	return n
}

// WireGroupBuilder reassembles a wire batch from raw group byte ranges
// — the cluster router's split path: groups stream out of
// WalkWireGroups and into one builder per ring owner verbatim, so
// partitioning a batch never decodes a report.
type WireGroupBuilder struct {
	payload []byte
	groups  uint32
}

// Append adds one raw group (bytes exactly as WalkWireGroups handed
// them to fn).
func (b *WireGroupBuilder) Append(group []byte) {
	if b.payload == nil {
		b.payload = append(make([]byte, 0, wireBatchHead+len(group)), WireVersion, 0, 0, 0, 0)
	}
	b.payload = append(b.payload, group...)
	b.groups++
}

// Frame patches the group count and returns the batch as one wal
// frame, ready to post or send. The builder is spent afterwards.
func (b *WireGroupBuilder) Frame() []byte {
	if b.payload == nil {
		b.payload = []byte{WireVersion, 0, 0, 0, 0}
	}
	binary.LittleEndian.PutUint32(b.payload[1:], b.groups)
	return wal.AppendFrame(make([]byte, 0, wal.FrameSize(len(b.payload))), b.payload)
}

// WalkWireGroups validates the structure of an unframed wire batch and
// streams its groups: fn (when non-nil) is called once per group with
// the vehicle ID, the group's complete raw bytes (header included —
// the unit the cluster router copies verbatim when splitting a batch
// across ring owners), and the packed report records. All three slices
// alias payload. It returns the total report count. A structure error
// aborts the walk; fn may have seen a prefix of the groups, so callers
// that mutate state must walk once with fn nil first (UpsertBinary
// does).
func WalkWireGroups(payload []byte, fn func(id, group, recs []byte) error) (int, error) {
	if len(payload) < wireBatchHead {
		return 0, ErrWireTruncated
	}
	if payload[0] != WireVersion {
		return 0, fmt.Errorf("%w %d", ErrWireVersion, payload[0])
	}
	groups := binary.LittleEndian.Uint32(payload[1:wireBatchHead])
	off, reports := wireBatchHead, 0
	for g := uint32(0); g < groups; g++ {
		start := off
		if len(payload)-off < 2 {
			return 0, ErrWireTruncated
		}
		idLen := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if len(payload)-off < idLen+4 {
			return 0, ErrWireTruncated
		}
		id := payload[off : off+idLen]
		off += idLen
		count := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		// Divide instead of multiplying so a hostile count cannot
		// overflow the bound check.
		if count > (len(payload)-off)/wireReportSize {
			return 0, ErrWireTruncated
		}
		recs := payload[off : off+count*wireReportSize]
		off += len(recs)
		reports += count
		if fn != nil {
			if err := fn(id, payload[start:off], recs); err != nil {
				return 0, err
			}
		}
	}
	if off != len(payload) {
		return 0, ErrWireTrailing
	}
	return reports, nil
}

// UpsertBinary applies one binary wire batch (the CRC-verified payload
// of a wal frame — transports run wal.ParseFrame first). It is
// UpsertBatch for the binary door: the same per-report validation,
// accounting, journaling and durability acknowledgement, minus the
// per-report decode allocations — IDs stay byte slices except when a
// new vehicle or a journaled change needs the string, so re-delivered
// steady-state telemetry applies with near-zero allocations per
// report. maxReports > 0 bounds the batch; structure errors and an
// oversized batch reject wholesale before anything is applied.
func (s *Store) UpsertBinary(payload []byte, maxReports int) (BatchResult, error) {
	total, err := WalkWireGroups(payload, nil)
	if err != nil {
		return BatchResult{}, err
	}
	if maxReports > 0 && total > maxReports {
		return BatchResult{}, fmt.Errorf("%w (%d > %d)", ErrBatchTooLarge, total, maxReports)
	}
	res := BatchResult{Vehicles: make(map[string]*VehicleResult)}
	now := time.Now()
	maxDay := epochDay(now.Add(futureSlack))
	s.batchHist.Observe(float64(total))

	s.mu.Lock()
	defer s.mu.Unlock()
	var changed []journalReport
	_, err = WalkWireGroups(payload, func(id, _, recs []byte) error {
		// The string(id) map keys below do not allocate on lookup —
		// only inserting a new vehicle or result entry converts.
		vr := res.Vehicles[string(id)]
		if vr == nil {
			vr = &VehicleResult{}
			res.Vehicles[string(id)] = vr
		}
		count := len(recs) / wireReportSize
		if err := validateIDLen(len(id)); err != nil {
			vr.Rejected += count
			res.Rejected += count
			s.rejected += uint64(count)
			for i := 0; i < count; i++ {
				vr.Errors = append(vr.Errors, err.Error())
			}
			return nil
		}
		rec := s.vehicles[string(id)]
		var idStr string // materialized at most once per group, lazily
		for o := 0; o < len(recs); o += wireReportSize {
			day := int64(binary.LittleEndian.Uint64(recs[o:]))
			sec := math.Float64frombits(binary.LittleEndian.Uint64(recs[o+8:]))
			if day < minReportDay || day > maxDay {
				vr.Rejected++
				vr.Errors = append(vr.Errors, validateDay(day, now).Error())
				res.Rejected++
				s.rejected++
				continue
			}
			if err := validateSeconds(sec); err != nil {
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
				idStr = string(id)
				rec = &vehicleRecord{days: make(map[int64]float64)}
				s.vehicles[idStr] = rec
			}
			if s.upsertDayLocked(rec, day, sec, now) {
				vr.Changed++
				res.Changed++
				s.changed++
				if s.journal != nil {
					if idStr == "" {
						idStr = string(id)
					}
					changed = append(changed, journalReport{ID: idStr, Day: day, Seconds: sec})
				}
			}
		}
		return nil
	})
	if err != nil {
		// Unreachable: the first walk validated the structure.
		return res, err
	}
	res.Seq = s.seq
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
