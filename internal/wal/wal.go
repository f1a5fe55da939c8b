// Package wal is an append-only, segmented write-ahead log: the
// durability substrate under the live telemetry store (internal/ingest
// journals every accepted batch here before acknowledging it, and a
// rebooted process replays the log to reconstruct the store — see the
// "Durability & telemetry partitioning" section of ARCHITECTURE.md).
//
// Layout: one directory holds numbered segment files, each a short
// header followed by length+checksum framed records:
//
//	segment file  <firstIndex as %016x>.wal
//	header        "reprowal1\n" magic + big-endian uint64 first index
//	record frame  uint32 payload length | uint32 CRC-32 (IEEE) | payload
//
// Records carry a monotonically increasing index (1-based) assigned at
// Append. Appends go to the active (newest) segment; once it exceeds
// Options.SegmentBytes the log rotates: the active file is synced,
// closed and sealed, and a fresh segment opens with the next index in
// its name — a crash between the two steps at worst leaves a sealed
// segment and no active one, which Open resumes from cleanly.
//
// Crash tolerance: Open scans every segment frame by frame. The first
// bad frame (truncated write, checksum mismatch, insane length) marks
// the end of the log: the file is truncated at that frame's offset,
// any later segments are dropped, and the event is counted in
// Stats.TruncatedTailEvents. Everything before the bad frame — i.e.
// every record whose Append returned — survives. Open and Replay each
// stream the segments through one reused buffered reader, so recovery
// costs O(log bytes) and never holds a segment in memory.
//
// Compaction: CompactThrough(index) deletes sealed segments whose
// records are all <= index. The caller is responsible for only passing
// indexes that are fully reflected in some other durable artifact (the
// ingest store compacts through its checkpoint, which it writes when a
// model generation is persisted); the log itself never drops the
// active segment.
//
// Fsync policy: FsyncAlways syncs every append before it returns (an
// acknowledged record survives kill -9), FsyncInterval piggybacks a
// sync on the first append after Options.FsyncEvery has elapsed, and
// FsyncNever leaves flushing to the OS. All methods are safe for
// concurrent use.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

const (
	segMagic   = "reprowal1\n"
	segSuffix  = ".wal"
	headerSize = len(segMagic) + 8
	frameHead  = 8 // uint32 length + uint32 crc
	// maxRecordBytes bounds a single payload; anything larger in a frame
	// header is corruption, not data.
	maxRecordBytes = 64 << 20
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 4 << 20
	// DefaultFsyncEvery is the FsyncInterval cadence when Options leaves
	// FsyncEvery zero.
	DefaultFsyncEvery = 50 * time.Millisecond
)

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every Append returns: an acknowledged
	// record survives kill -9 and power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on the first append after FsyncEvery has
	// elapsed since the last sync — bounded data-loss window, near
	// FsyncNever throughput.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache.
	FsyncNever
)

// String names the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag values "always", "interval"
// and "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync selects the append durability policy.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval cadence; 0 selects
	// DefaultFsyncEvery.
	FsyncEvery time.Duration
}

// Stats is the log's observable state, surfaced through GET
// /admin/ingest and `fleetctl ingest`.
type Stats struct {
	// Segments counts segment files (sealed + active); Bytes totals
	// their sizes.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// FirstIndex/LastIndex bound the records currently in the log
	// (both 0 when empty; FirstIndex moves up as compaction drops
	// segments).
	FirstIndex uint64 `json:"first_index"`
	LastIndex  uint64 `json:"last_index"`
	// Appends, Rotations and Fsyncs count operations since Open.
	Appends   uint64 `json:"appends"`
	Rotations uint64 `json:"rotations"`
	Fsyncs    uint64 `json:"fsyncs"`
	// LastFsync is the wall-clock time of the latest sync (zero when
	// none happened yet).
	LastFsync time.Time `json:"last_fsync"`
	// TruncatedTailEvents counts corrupt tails Open cut off (segments
	// truncated at a bad frame plus later segments dropped).
	TruncatedTailEvents int `json:"truncated_tail_events"`
	// ReplayRecords/ReplayDuration describe the latest Replay call.
	ReplayRecords  int           `json:"replay_records"`
	ReplayDuration time.Duration `json:"replay_duration"`
	// CompactedSegments counts segments removed by CompactThrough since
	// Open.
	CompactedSegments uint64 `json:"compacted_segments"`
}

// segment is one sealed (read-only) segment file.
type segment struct {
	path       string
	firstIndex uint64
	lastIndex  uint64 // 0 when the segment holds no records
	bytes      int64
}

// Log is an append-only segmented record log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu          sync.Mutex
	sealed      []segment
	active      *os.File
	activePath  string
	activeFirst uint64
	activeBytes int64
	nextIndex   uint64 // index the next Append receives
	dirty       bool   // unsynced appends in the active segment
	closed      bool
	// failErr poisons the log after a torn append: frames written after
	// a partial write would be unreachable behind the bad frame (both
	// replay and the next Open stop at it), so further appends must not
	// silently acknowledge records the log cannot return.
	failErr error

	appends     uint64
	rotations   uint64
	fsyncs      uint64
	lastFsync   time.Time
	truncEvents int
	replayRecs  int
	replayDur   time.Duration
	compacted   uint64

	// Latency histograms, atomic and allocation-free so observing them
	// inside the append critical section costs nanoseconds, not a lock.
	appendHist *obs.Histogram
	fsyncHist  *obs.Histogram
}

// Open opens (creating if needed) the log directory, scans every
// segment, truncates a corrupt tail at the first bad frame, and
// resumes appending after the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = DefaultFsyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		dir: dir, opts: opts, nextIndex: 1,
		appendHist: obs.NewHistogram(obs.SyncBuckets),
		fsyncHist:  obs.NewHistogram(obs.SyncBuckets),
	}

	paths, err := segmentPaths(dir)
	if err != nil {
		return nil, err
	}
	fr := newFrameReader()
	for i, path := range paths {
		seg, intact, err := scanSegment(path, fr)
		if err != nil {
			return nil, err
		}
		if !intact {
			// Corrupt tail: everything from the bad frame on — including
			// any later segments — is gone. Records before it survive.
			l.truncEvents++
			if seg.lastIndex == 0 && seg.bytes <= int64(headerSize) {
				// Nothing intact in this file at all (e.g. a header-less
				// shard of a crashed rotation): drop it entirely.
				if err := os.Remove(path); err != nil {
					return nil, fmt.Errorf("wal: dropping corrupt segment: %w", err)
				}
			} else {
				l.sealed = append(l.sealed, seg)
			}
			for _, late := range paths[i+1:] {
				l.truncEvents++
				if err := os.Remove(late); err != nil {
					return nil, fmt.Errorf("wal: dropping post-corruption segment: %w", err)
				}
			}
			if err := syncDir(dir); err != nil {
				return nil, err
			}
			break
		}
		l.sealed = append(l.sealed, seg)
	}
	for _, seg := range l.sealed {
		if seg.lastIndex >= l.nextIndex {
			l.nextIndex = seg.lastIndex + 1
		}
		// A record-less segment (the normal state right after a
		// rotation, before the first append into it) still pins the
		// index sequence through its header: the next record must get
		// its firstIndex, even when every earlier segment has been
		// compacted away.
		if seg.lastIndex == 0 && seg.firstIndex > l.nextIndex {
			l.nextIndex = seg.firstIndex
		}
	}

	// Resume appending in the newest surviving segment (if any),
	// otherwise start a fresh one on first Append.
	if n := len(l.sealed); n > 0 {
		tail := l.sealed[n-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening active segment: %w", err)
		}
		l.active = f
		l.activePath = tail.path
		l.activeFirst = tail.firstIndex
		l.activeBytes = tail.bytes
		l.sealed = l.sealed[:n-1]
	}
	return l, nil
}

// segmentPaths lists the directory's segment files in index order.
func segmentPaths(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64); err != nil {
			continue // not a segment file
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths) // %016x names sort numerically
	return paths, nil
}

// readBufferBytes sizes the one read buffer Open and Replay each stream
// every segment through: large enough that a frame costs no read
// syscall of its own, small enough that recovery never holds a segment
// (let alone the log) in memory.
const readBufferBytes = 1 << 20

// frameReader streams segment files frame by frame through one reused
// buffered reader. A payload that fits the read buffer is returned in
// place; a larger one is copied into a payload buffer that grows to the
// largest such record once per Open or Replay, not once per frame.
type frameReader struct {
	br      *bufio.Reader
	remain  int64 // bytes of the current file not yet consumed
	head    [headerSize]byte
	payload []byte
}

func newFrameReader() *frameReader {
	return &frameReader{br: bufio.NewReaderSize(nil, readBufferBytes)}
}

// reset positions the reader at the first frame of f and returns the
// segment's first index; ok is false when f has no intact header.
func (fr *frameReader) reset(f *os.File) (first uint64, ok bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	fr.br.Reset(f)
	fr.remain = st.Size()
	if _, err := io.ReadFull(fr.br, fr.head[:]); err != nil || string(fr.head[:len(segMagic)]) != segMagic {
		return 0, false, nil
	}
	fr.remain -= int64(headerSize)
	return binary.BigEndian.Uint64(fr.head[len(segMagic):]), true, nil
}

// next returns the next frame's CRC-verified payload, valid until the
// following call. It returns io.EOF at a clean end of the file, and the
// codec's ErrFrameTruncated, ErrFrameOversize or ErrFrameChecksum for a
// torn, insane or corrupt frame. A length reaching past the end of the
// file is torn, so a corrupt length field never sizes an allocation.
func (fr *frameReader) next() ([]byte, error) {
	switch {
	case fr.remain <= 0:
		return nil, io.EOF
	case fr.remain < frameHead:
		return nil, ErrFrameTruncated
	}
	if _, err := io.ReadFull(fr.br, fr.head[:frameHead]); err != nil {
		return nil, readErr(err)
	}
	n := binary.LittleEndian.Uint32(fr.head[0:4])
	sum := binary.LittleEndian.Uint32(fr.head[4:8])
	switch {
	case n > maxRecordBytes:
		return nil, ErrFrameOversize
	case int64(n) > fr.remain-frameHead:
		return nil, ErrFrameTruncated
	}
	var payload []byte
	var err error
	if int(n) <= fr.br.Size() {
		payload, err = fr.br.Peek(int(n))
		fr.br.Discard(len(payload)) // already buffered: cannot fail
	} else {
		if cap(fr.payload) < int(n) {
			fr.payload = make([]byte, n)
		}
		payload = fr.payload[:n]
		_, err = io.ReadFull(fr.br, payload)
	}
	if err != nil {
		return nil, readErr(err)
	}
	fr.remain -= int64(frameHead) + int64(n)
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrFrameChecksum
	}
	return payload, nil
}

// readErr maps a short read (the file shrank under the reader) to a
// torn frame and passes any other I/O error through.
func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrFrameTruncated
	}
	return err
}

// scanSegment walks one segment file frame by frame. It returns the
// segment's surviving extent and whether the file was fully intact; on
// a bad frame the file is truncated at the frame's start first.
func scanSegment(path string, fr *frameReader) (segment, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return segment{}, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	seg := segment{path: path}
	truncateAt := func(off int64) (segment, bool, error) {
		if err := os.Truncate(path, off); err != nil {
			return segment{}, false, fmt.Errorf("wal: truncating corrupt tail of %s: %w", path, err)
		}
		seg.bytes = off
		return seg, false, nil
	}

	first, ok, err := fr.reset(f)
	if err != nil {
		return segment{}, false, err
	}
	if !ok {
		// No intact header: nothing in this file is recoverable.
		return truncateAt(0)
	}
	seg.firstIndex = first
	next := first
	seg.bytes = int64(headerSize)
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return seg, true, nil // clean end
		}
		if err != nil {
			return truncateAt(seg.bytes) // torn, insane or corrupt frame
		}
		seg.bytes += int64(FrameSize(len(payload)))
		seg.lastIndex = next
		next++
	}
}

// syncDir fsyncs a directory so segment creates/removes/renames are
// themselves durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}

func segPath(dir string, firstIndex uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", firstIndex, segSuffix))
}

// openSegmentLocked creates the active segment whose first record will
// be l.nextIndex. The header is written and synced before any record
// lands in it.
func (l *Log) openSegmentLocked() error {
	path := segPath(l.dir, l.nextIndex)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	head := make([]byte, headerSize)
	copy(head, segMagic)
	binary.BigEndian.PutUint64(head[len(segMagic):], l.nextIndex)
	if _, err := f.Write(head); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activePath = path
	l.activeFirst = l.nextIndex
	l.activeBytes = int64(headerSize)
	return nil
}

// Append frames and appends one record, returning its index. Depending
// on the fsync policy the record is synced before Append returns; with
// FsyncAlways a returned index is durable against kill -9.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: %d-byte record exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.appendHist.ObserveSince(t0) // whole critical section, incl. policy fsync
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.failErr != nil {
		return 0, fmt.Errorf("wal: log failed earlier: %w", l.failErr)
	}
	if l.active == nil {
		if err := l.openSegmentLocked(); err != nil {
			return 0, err
		}
	}

	frame := AppendFrame(make([]byte, 0, FrameSize(len(payload))), payload)
	if _, err := l.active.Write(frame); err != nil {
		// A torn write leaves a bad frame at the tail; the next Open
		// truncates it away, so the in-memory index must not advance —
		// and no later append may land behind the bad frame.
		l.failErr = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	idx := l.nextIndex
	l.nextIndex++
	l.activeBytes += int64(len(frame))
	l.appends++
	l.dirty = true

	switch l.opts.Fsync {
	case FsyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		if time.Since(l.lastFsync) >= l.opts.FsyncEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}

	if l.activeBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return idx, nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, segment{
		path:       l.activePath,
		firstIndex: l.activeFirst,
		lastIndex:  l.nextIndex - 1,
		bytes:      l.activeBytes,
	})
	l.active = nil
	l.rotations++
	return l.openSegmentLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty || l.active == nil {
		return nil
	}
	t0 := time.Now()
	err := l.active.Sync()
	l.fsyncHist.ObserveSince(t0)
	if err != nil {
		// After a failed fsync the kernel may mark the dirty pages clean
		// without persisting them, so a *later* successful fsync could
		// acknowledge records behind a frame that never reached disk.
		// Poison the log: nothing may be acknowledged past this point.
		l.failErr = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.fsyncs++
	l.lastFsync = time.Now()
	return nil
}

// Sync forces any buffered appends to stable storage regardless of the
// fsync policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// Replay calls fn for every record in index order; payload is valid
// only until fn returns. A callback error aborts the replay and is
// returned. Replay may run concurrently with appends; it covers the
// records present when it reaches each segment.
func (l *Log) Replay(fn func(index uint64, payload []byte) error) error {
	t0 := time.Now()
	l.mu.Lock()
	// Snapshot the segment list; sync the active file so the read side
	// observes every acknowledged record.
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	paths := make([]string, 0, len(l.sealed)+1)
	for _, seg := range l.sealed {
		paths = append(paths, seg.path)
	}
	if l.active != nil {
		paths = append(paths, l.activePath)
	}
	l.mu.Unlock()

	records := 0
	fr := newFrameReader()
	for _, path := range paths {
		n, err := replaySegment(path, fr, fn)
		records += n
		if err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.replayRecs = records
	l.replayDur = time.Since(t0)
	l.mu.Unlock()
	return nil
}

// replaySegment streams one segment's records through fn. Segments
// were validated (and tail-truncated) at Open, so a corrupt frame here
// is an error, not expected corruption; a torn frame is an append still
// in flight and ends the segment cleanly.
func replaySegment(path string, fr *frameReader, fn func(uint64, []byte) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()

	idx, ok, err := fr.reset(f)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("wal: %s: bad segment header", path)
	}
	records := 0
	for {
		payload, err := fr.next()
		switch {
		case err == io.EOF || errors.Is(err, ErrFrameTruncated):
			return records, nil
		case errors.Is(err, ErrFrameChecksum):
			return records, fmt.Errorf("wal: %s: checksum mismatch at record %d", path, idx)
		case err != nil:
			return records, fmt.Errorf("wal: %s: record %d: %w", path, idx, err)
		}
		if err := fn(idx, payload); err != nil {
			return records, err
		}
		records++
		idx++
	}
}

// CompactThrough removes sealed segments whose records are all <=
// index — call it only with indexes fully reflected in a durable
// checkpoint (the ingest store passes the index its checkpoint covers,
// written when a model generation is persisted). The active segment is
// never removed. Returns how many segments were deleted.
func (l *Log) CompactThrough(index uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.sealed) > 0 {
		seg := l.sealed[0]
		if seg.lastIndex == 0 || seg.lastIndex > index {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return removed, fmt.Errorf("wal: compacting: %w", err)
		}
		l.sealed = l.sealed[1:]
		removed++
		l.compacted++
	}
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// LastIndex returns the index of the most recently appended record (0
// when the log is empty).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextIndex - 1
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Stats reports the log's current state.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Appends:             l.appends,
		Rotations:           l.rotations,
		Fsyncs:              l.fsyncs,
		LastFsync:           l.lastFsync,
		TruncatedTailEvents: l.truncEvents,
		ReplayRecords:       l.replayRecs,
		ReplayDuration:      l.replayDur,
		CompactedSegments:   l.compacted,
		LastIndex:           l.nextIndex - 1,
	}
	for _, seg := range l.sealed {
		st.Segments++
		st.Bytes += seg.bytes
		if st.FirstIndex == 0 && seg.lastIndex > 0 {
			st.FirstIndex = seg.firstIndex
		}
	}
	if l.active != nil {
		st.Segments++
		st.Bytes += l.activeBytes
		if st.FirstIndex == 0 && l.nextIndex > l.activeFirst {
			st.FirstIndex = l.activeFirst
		}
	}
	if st.LastIndex < st.FirstIndex {
		st.LastIndex = 0
		st.FirstIndex = 0
	}
	return st
}

// WriteMetrics renders the log's latency histograms into w. Gauges
// derived from Stats are the serve layer's job; the histograms live
// here because only the log can observe its own critical sections.
func (l *Log) WriteMetrics(w *obs.TextWriter) {
	w.Histogram("fleet_wal_append_seconds",
		"WAL append critical-section latency (frame write plus any policy fsync).", "", l.appendHist)
	w.Histogram("fleet_wal_fsync_seconds",
		"WAL fsync latency.", "", l.fsyncHist)
}

// Close syncs and closes the active segment. The log cannot be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}
