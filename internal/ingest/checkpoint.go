package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ml"
)

// The checkpoint file (version 2). Every integer is little-endian and
// every float is its IEEE 754 bits (the internal/ml codec primitives).
// In order:
//
//   - the magic "reprockpt\n" and a u32 format version;
//   - the covered WAL index, the store sequence and the accepted,
//     rejected and changed counters (u64 each), then the save time;
//   - a u32 vehicle count and, per vehicle in ID order: the ID (u32
//     length and bytes), its content hash, last change sequence and
//     report count (u64 each), its last report time, its first day
//     (i64), its span and reported-day count (u32 each), the presence
//     bitmap over the span (u64 words, bit k for day first+k) and the
//     span's seconds (gaps 0);
//   - a CRC-32C of every byte before it.
//
// A time is its Unix seconds (i64) and nanoseconds (u32).
//
// Load checks the CRC, bounds every count by the bytes that remain, and
// checks each vehicle's run against its own counters and hash before a
// record is installed as it was decoded. Version 1 was a gob stream; it
// is still read, once: OpenDurable rewrites it as version 2 before it
// returns.

// checkpointFile is the store spill inside the WAL directory. It is
// not a segment (no .wal suffix), so the log never scans it.
const checkpointFile = "checkpoint"

const (
	ckptMagic     = "reprockpt\n"
	ckptVersion   = 2
	ckptVersionV1 = 1
	ckptHeadSize  = len(ckptMagic) + 4
	ckptCRCSize   = 4
	// minCkptVehicleSize is the smallest encoded vehicle: an empty ID,
	// a one-day span.
	minCkptVehicleSize = 4 + 3*8 + 12 + 8 + 4 + 4 + 8 + 8
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// errCkptVersion marks a file whose u32 version is not this build's.
	errCkptVersion = errors.New("unknown checkpoint version")
)

// maxStoredDay bounds every stored day from above on the paths no
// clock checks — journal replay and checkpoint load — so a damaged
// record cannot size a run past 2^16 days. The doors' own bound (now
// plus futureSlack) stays below it until 2169.
var maxStoredDay = minReportDay + 1<<16 - 1

// checkpoint is the store's full state: everything needed to resume as
// if every batch up to walIndex had just been applied.
type checkpoint struct {
	// walIndex is the journal record the checkpoint covers through;
	// replay skips records at or below it.
	walIndex                         uint64
	seq, accepted, rejected, changed uint64
	savedAt                          time.Time
	vehicles                         map[string]*vehicleRecord
}

// encodeCheckpoint writes ck in the version 2 layout straight from its
// records. Callers hold whatever lock guards them.
func encodeCheckpoint(ck *checkpoint) []byte {
	ids := make([]string, 0, len(ck.vehicles))
	size := ckptHeadSize + 5*8 + 12 + 4 + ckptCRCSize
	for id, rec := range ck.vehicles {
		ids = append(ids, id)
		span := rec.hi - rec.lo + 1
		size += minCkptVehicleSize - 16 + len(id) + 8*((span+63)/64+span)
	}
	sort.Strings(ids)

	b := append(make([]byte, 0, size), ckptMagic...)
	b = ml.AppendU32(b, ckptVersion)
	b = ml.AppendU64(b, ck.walIndex)
	b = ml.AppendU64(b, ck.seq)
	b = ml.AppendU64(b, ck.accepted)
	b = ml.AppendU64(b, ck.rejected)
	b = ml.AppendU64(b, ck.changed)
	b = appendCkptTime(b, ck.savedAt)
	b = ml.AppendU32(b, uint32(len(ids)))
	for _, id := range ids {
		rec := ck.vehicles[id]
		span := rec.hi - rec.lo + 1
		b = ml.AppendString(b, id)
		b = ml.AppendU64(b, rec.hash)
		b = ml.AppendU64(b, rec.lastSeq)
		b = ml.AppendU64(b, rec.reports)
		b = appendCkptTime(b, rec.lastReport)
		b = ml.AppendU64(b, uint64(rec.minDay()))
		b = ml.AppendU32(b, uint32(span))
		b = ml.AppendU32(b, uint32(rec.n))
		// The bitmap is kept relative to buf; shift it to the span. Bits
		// past hi are clear, so the last word needs no mask.
		w0, sh := rec.lo>>6, uint(rec.lo&63)
		for k := 0; k < (span+63)/64; k++ {
			word := rec.present[w0+k] >> sh
			if sh != 0 && w0+k+1 < len(rec.present) {
				word |= rec.present[w0+k+1] << (64 - sh)
			}
			b = ml.AppendU64(b, word)
		}
		for _, sec := range rec.run() {
			b = ml.AppendF64(b, sec)
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func appendCkptTime(b []byte, t time.Time) []byte {
	b = ml.AppendU64(b, uint64(t.Unix()))
	return ml.AppendU32(b, uint32(t.Nanosecond()))
}

func readCkptTime(d *ml.Decoder) time.Time {
	sec, nsec := int64(d.U64()), d.U32()
	if nsec >= 1e9 {
		d.Failf("nanoseconds %d out of range", nsec)
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// decodeCheckpoint parses a version 2 file. Nothing it allocates
// exceeds the bytes it has checked: counts are bounded by the bytes
// that remain, and a run is sized only after its bytes are read.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < ckptHeadSize+ckptCRCSize || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint32(data[len(ckptMagic):]); v != ckptVersion {
		return nil, fmt.Errorf("%w %d", errCkptVersion, v)
	}
	body := data[:len(data)-ckptCRCSize]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("checkpoint checksum mismatch")
	}
	d := ml.NewDecoder(body[ckptHeadSize:])
	ck := &checkpoint{
		walIndex: d.U64(),
		seq:      d.U64(),
		accepted: d.U64(),
		rejected: d.U64(),
		changed:  d.U64(),
		savedAt:  readCkptTime(d),
	}
	n := d.Count(minCkptVehicleSize)
	ck.vehicles = make(map[string]*vehicleRecord, n)
	prev := ""
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.String()
		if i > 0 && id <= prev {
			d.Failf("vehicle %q out of ID order", id)
		}
		prev = id
		rec := &vehicleRecord{
			firstCycle: viewUnknown,
			hash:       d.U64(),
			lastSeq:    d.U64(),
			reports:    d.U64(),
			lastReport: readCkptTime(d),
			base:       int64(d.U64()),
		}
		span, days := int(d.U32()), int(d.U32())
		words := (span + 63) / 64
		raw := d.Bytes(8 * (words + span))
		if d.Err() != nil {
			break
		}
		rec.present = make([]uint64, words)
		for k := range rec.present {
			rec.present[k] = binary.LittleEndian.Uint64(raw[8*k:])
		}
		rec.buf = make([]float64, span)
		for k := range rec.buf {
			rec.buf[k] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(words+k):]))
		}
		rec.hi, rec.n = span-1, days
		if err := checkRun(rec, ck.seq); err != nil {
			d.Failf("vehicle %q: %w", id, err)
		}
		ck.vehicles[id] = rec
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ck, nil
}

// checkRun checks a loaded record: its day bounds, its bitmap against
// n and the run, its gaps, its seconds and its hash.
func checkRun(rec *vehicleRecord, seq uint64) error {
	if len(rec.buf) == 0 {
		return errors.New("no reported day")
	}
	run := rec.run()
	switch {
	case rec.minDay() < minReportDay || rec.minDay() > maxStoredDay-int64(len(run)-1):
		return fmt.Errorf("run of %d days from day %d out of range", len(run), rec.minDay())
	case !rec.reported(rec.lo) || !rec.reported(rec.hi):
		return errors.New("run does not start and end on a reported day")
	case rec.lastSeq > seq:
		return fmt.Errorf("last change %d after the store sequence %d", rec.lastSeq, seq)
	}
	all, inRun := 0, 0
	for _, word := range rec.present {
		all += bits.OnesCount64(word)
	}
	for k, sec := range run {
		day := rec.minDay() + int64(k)
		if !rec.reported(rec.lo + k) {
			if math.Float64bits(sec) != 0 {
				return fmt.Errorf("gap day %d holds %v", day, sec)
			}
			continue
		}
		inRun++
		if err := validateSeconds(sec); err != nil {
			return fmt.Errorf("day %d: %w", day, err)
		}
	}
	if all != rec.n || inRun != rec.n {
		return fmt.Errorf("bitmap holds %d days (%d in the run), the count says %d", all, inRun, rec.n)
	}
	if h := rec.fold(); h != rec.hash {
		return fmt.Errorf("content hash %016x, the days fold to %016x", rec.hash, h)
	}
	return nil
}

// checkpointV1 and checkpointV1Vehicle are the version 1 layout, a gob
// stream after the magic (a gob-encoded version int, then this).
type checkpointV1 struct {
	WALIndex uint64
	Seq      uint64
	Accepted uint64
	Rejected uint64
	Changed  uint64
	Vehicles map[string]checkpointV1Vehicle
	SavedAt  time.Time
}

type checkpointV1Vehicle struct {
	Days       map[int64]float64
	Hash       uint64
	LastSeq    uint64
	Reports    uint64
	LastReport time.Time
}

// decodeCheckpointV1 reads a version 1 file into runs, checking them as
// decodeCheckpoint does.
func decodeCheckpointV1(data []byte) (*checkpoint, error) {
	dec := gob.NewDecoder(bytes.NewReader(data[len(ckptMagic):]))
	var version int
	if err := dec.Decode(&version); err != nil || version != ckptVersionV1 {
		return nil, errCkptVersion
	}
	var v1 checkpointV1
	if err := dec.Decode(&v1); err != nil {
		return nil, err
	}
	ck := &checkpoint{
		walIndex: v1.WALIndex,
		seq:      v1.Seq,
		accepted: v1.Accepted,
		rejected: v1.Rejected,
		changed:  v1.Changed,
		savedAt:  v1.SavedAt,
		vehicles: make(map[string]*vehicleRecord, len(v1.Vehicles)),
	}
	for id, cv := range v1.Vehicles {
		rec := &vehicleRecord{firstCycle: viewUnknown, hash: cv.Hash, lastSeq: cv.LastSeq, reports: cv.Reports, lastReport: cv.LastReport}
		for day, sec := range cv.Days {
			if day < minReportDay || day > maxStoredDay {
				return nil, fmt.Errorf("vehicle %q: day %d out of range", id, day)
			}
			rec.put(day, sec)
		}
		if err := checkRun(rec, ck.seq); err != nil {
			return nil, fmt.Errorf("vehicle %q: %w", id, err)
		}
		ck.vehicles[id] = rec
	}
	return ck, nil
}

// loadCheckpoint reads the checkpoint at path, in either version, and
// returns it with the file's version and size.
func loadCheckpoint(path string) (*checkpoint, int, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err // os.ErrNotExist = first boot
	}
	ck, err := decodeCheckpoint(data)
	version := ckptVersion
	if errors.Is(err, errCkptVersion) {
		// Version 1 has no u32 version: a gob stream follows the magic.
		ck, err = decodeCheckpointV1(data)
		version = ckptVersionV1
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ingest: reading %s: %w", path, err)
	}
	return ck, version, len(data), nil
}

// writeCheckpoint replaces the checkpoint at path with data atomically:
// temp file, fsync, rename, directory fsync.
func writeCheckpoint(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, checkpointFile+".tmp*")
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	_, writeErr := tmp.Write(data)
	if writeErr == nil {
		writeErr = tmp.Sync()
	}
	if cerr := tmp.Close(); writeErr == nil {
		writeErr = cerr
	}
	if writeErr != nil {
		return fmt.Errorf("ingest: writing checkpoint: %w", writeErr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ingest: syncing checkpoint rename: %w", err)
	}
	return nil
}

// removeStaleCheckpointTemps deletes the temp files of checkpoints whose
// writer was killed before its deferred remove ran.
func removeStaleCheckpointTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match(checkpointFile+".tmp*", e.Name()); ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("ingest: removing a stale checkpoint temp file: %w", err)
			}
		}
	}
	return nil
}
