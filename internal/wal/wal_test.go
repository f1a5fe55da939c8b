package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func open(t testing.TB, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t testing.TB, l *Log) map[uint64][]byte {
	t.Helper()
	out := make(map[uint64][]byte)
	if err := l.Replay(func(idx uint64, payload []byte) error {
		if _, dup := out[idx]; dup {
			t.Fatalf("index %d replayed twice", idx)
		}
		out[idx] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Fsync: FsyncAlways})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{byte(i)}, i%17)))
		idx, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i+1) {
			t.Fatalf("append %d got index %d", i, idx)
		}
		want = append(want, p)
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(got[uint64(i+1)], p) {
			t.Fatalf("record %d differs", i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same records, appends resume at the next index.
	l2 := open(t, dir, Options{Fsync: FsyncAlways})
	got = collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("after reopen: %d records, want %d", len(got), len(want))
	}
	idx, err := l2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != uint64(len(want)+1) {
		t.Fatalf("reopened append got index %d, want %d", idx, len(want)+1)
	}
}

func TestRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 256, Fsync: FsyncNever})
	const n = 64
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < n; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("only %d segments after %d appends with a 256-byte threshold", st.Segments, n)
	}
	if st.Rotations == 0 {
		t.Fatal("no rotations counted")
	}
	if got := collect(t, l); len(got) != n {
		t.Fatalf("replay over %d segments yielded %d records, want %d", st.Segments, len(got), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, dir, Options{SegmentBytes: 256})
	if got := collect(t, l2); len(got) != n {
		t.Fatalf("reopen across segments yielded %d records, want %d", len(got), n)
	}
}

// TestCorruptTailTruncated: flipping a byte in the last record's
// payload loses exactly that record — everything before it survives,
// and the event is counted.
func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	paths, err := segmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := paths[len(paths)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // corrupt the final payload byte
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{Fsync: FsyncAlways})
	got := collect(t, l2)
	if len(got) != 9 {
		t.Fatalf("replayed %d records after tail corruption, want 9", len(got))
	}
	if _, ok := got[10]; ok {
		t.Fatal("corrupted record 10 replayed")
	}
	st := l2.Stats()
	if st.TruncatedTailEvents == 0 {
		t.Fatal("tail truncation not counted")
	}
	// The truncated log accepts new appends; the bad record's index is
	// reused (it was never durable).
	idx, err := l2.Append([]byte("recovered"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 10 {
		t.Fatalf("post-truncation append got index %d, want 10", idx)
	}
	if got := collect(t, l2); string(got[10]) != "recovered" {
		t.Fatalf("record 10 = %q after recovery", got[10])
	}
}

// TestTornFrameHeaderTruncated: a crash can leave a partial frame
// header at the tail; Open must cut it off.
func TestTornFrameHeaderTruncated(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("intact")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _ := segmentPaths(dir)
	f, err := os.OpenFile(paths[len(paths)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x66, 0x77}); err != nil { // 3 of 8 header bytes
		t.Fatal(err)
	}
	f.Close()

	l2 := open(t, dir, Options{Fsync: FsyncAlways})
	if got := collect(t, l2); len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	if l2.Stats().TruncatedTailEvents == 0 {
		t.Fatal("torn frame header not counted as a truncation")
	}
}

// TestCorruptionDropsLaterSegments: a bad frame in a non-final segment
// ends the log there — later segments cannot be trusted to be
// contiguous and are dropped, with each drop counted.
func TestCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 128, Fsync: FsyncAlways})
	payload := bytes.Repeat([]byte("y"), 50)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _ := segmentPaths(dir)
	if len(paths) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(paths))
	}
	victim := paths[0]
	data, _ := os.ReadFile(victim)
	data[headerSize+frameHead] ^= 0xff // first record's first payload byte
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{SegmentBytes: 128, Fsync: FsyncAlways})
	if got := collect(t, l2); len(got) != 0 {
		t.Fatalf("replayed %d records after first-segment corruption, want 0", len(got))
	}
	if st := l2.Stats(); st.TruncatedTailEvents < len(paths)-1 {
		t.Fatalf("counted %d truncation events, want >= %d (later segments dropped)", st.TruncatedTailEvents, len(paths)-1)
	}
	for _, p := range paths[1:] {
		if _, err := os.Stat(p); err == nil {
			t.Fatalf("post-corruption segment %s survived", filepath.Base(p))
		}
	}
}

// TestCompactThrough: only sealed segments fully covered by the index
// are removed; the remainder (and the active segment) keep replaying.
func TestCompactThrough(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 128, Fsync: FsyncAlways})
	payload := bytes.Repeat([]byte("z"), 50)
	var lastIdx uint64
	for i := 0; i < 12; i++ {
		idx, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		lastIdx = idx
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", before.Segments)
	}

	// Compacting through an index mid-way keeps every record above it.
	cut := lastIdx / 2
	removed, err := l.CompactThrough(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing compacted")
	}
	got := collect(t, l)
	for idx := cut + 1; idx <= lastIdx; idx++ {
		if _, ok := got[idx]; !ok {
			t.Fatalf("record %d lost by compaction through %d", idx, cut)
		}
	}
	for idx := range got {
		if idx <= cut {
			// Records below the cut may survive (their segment also holds
			// later records) — that is fine; losing records above it is not.
			continue
		}
	}

	// Compacting through the very last index still keeps the active
	// segment (and therefore the append path) alive.
	if _, err := l.CompactThrough(lastIdx); err != nil {
		t.Fatal(err)
	}
	idx, err := l.Append([]byte("after-compaction"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != lastIdx+1 {
		t.Fatalf("append after compaction got %d, want %d", idx, lastIdx+1)
	}
	if st := l.Stats(); st.CompactedSegments == 0 {
		t.Fatal("compacted segments not counted")
	}
}

// TestReopenEmptyTailSegmentKeepsIndexes: a crash right after a
// rotation leaves a record-less tail segment; if compaction has also
// removed every sealed segment, the reopened log must resume at the
// tail header's first index — not restart at 1 with indexes that
// contradict the on-disk segment header.
func TestReopenEmptyTailSegmentKeepsIndexes(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 64, Fsync: FsyncAlways})
	// One oversized append forces an immediate rotation: the active
	// segment is now empty with firstIndex 2.
	idx, err := l.Append(bytes.Repeat([]byte("a"), 100))
	if err != nil {
		t.Fatal(err)
	}
	if removed, err := l.CompactThrough(idx); err != nil || removed != 1 {
		t.Fatalf("compact removed %d, err %v; want 1 sealed segment gone", removed, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{SegmentBytes: 64, Fsync: FsyncAlways})
	idx2, err := l2.Append([]byte("resumed"))
	if err != nil {
		t.Fatal(err)
	}
	if idx2 != idx+1 {
		t.Fatalf("append after reopen got index %d, want %d", idx2, idx+1)
	}
	got := collect(t, l2)
	if len(got) != 1 || string(got[idx2]) != "resumed" {
		t.Fatalf("replay = %v, want record %d only", got, idx2)
	}
}

// TestRecordLargerThanReadBuffer: a record the buffered reader cannot
// hold whole is read through the payload buffer instead, on both the
// Open scan and Replay, and the records around it stay intact.
func TestRecordLargerThanReadBuffer(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{Fsync: FsyncNever})
	big := bytes.Repeat([]byte("0123456789abcdef"), readBufferBytes/16+7)
	want := [][]byte{[]byte("before"), big, []byte("after")}
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, dir, Options{})
	if st := l2.Stats(); st.TruncatedTailEvents != 0 {
		t.Fatalf("Open truncated an intact log: %+v", st)
	}
	got := collect(t, l2)
	for i, p := range want {
		if !bytes.Equal(got[uint64(i+1)], p) {
			t.Fatalf("record %d differs after reopen", i+1)
		}
	}
}

// TestCrashReopenProperty: randomized appends with reopen-after-every-
// batch (the "process restarted" loop). Every acknowledged record must
// replay identically, in every generation.
func TestCrashReopenProperty(t *testing.T) {
	dir := t.TempDir()
	rnd := rand.New(rand.NewSource(7))
	acked := make(map[uint64][]byte)
	opts := Options{SegmentBytes: 512, Fsync: FsyncAlways}

	for gen := 0; gen < 8; gen++ {
		l := open(t, dir, opts)
		got := collect(t, l)
		if len(got) != len(acked) {
			t.Fatalf("generation %d: replayed %d records, want %d", gen, len(got), len(acked))
		}
		for idx, p := range acked {
			if !bytes.Equal(got[idx], p) {
				t.Fatalf("generation %d: record %d differs", gen, idx)
			}
		}
		for i := 0; i < 5+rnd.Intn(20); i++ {
			p := make([]byte, 1+rnd.Intn(200))
			rnd.Read(p)
			idx, err := l.Append(p)
			if err != nil {
				t.Fatal(err)
			}
			acked[idx] = append([]byte(nil), p...)
		}
		// Abrupt exit: no Close. FsyncAlways means every acknowledged
		// append is already on disk.
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			l := open(t, t.TempDir(), Options{Fsync: policy, FsyncEvery: time.Hour})
			for i := 0; i < 10; i++ {
				if _, err := l.Append([]byte("p")); err != nil {
					t.Fatal(err)
				}
			}
			st := l.Stats()
			switch policy {
			case FsyncAlways:
				if st.Fsyncs < 10 {
					t.Fatalf("always: %d fsyncs for 10 appends", st.Fsyncs)
				}
			case FsyncInterval:
				// One sync at the first append (lastFsync zero), then the
				// 1h cadence keeps the rest buffered.
				if st.Fsyncs != 1 {
					t.Fatalf("interval: %d fsyncs, want 1", st.Fsyncs)
				}
			case FsyncNever:
				if st.Fsyncs != 0 {
					t.Fatalf("never: %d fsyncs, want 0", st.Fsyncs)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); policy != FsyncAlways && st.Fsyncs == 0 {
				t.Fatal("explicit Sync did not count")
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{"always": FsyncAlways, "Interval": FsyncInterval, "NEVER": FsyncNever, "": FsyncAlways}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestStats(t *testing.T) {
	l := open(t, t.TempDir(), Options{Fsync: FsyncAlways})
	if st := l.Stats(); st.LastIndex != 0 || st.Segments != 0 {
		t.Fatalf("empty log stats = %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.LastIndex != 3 || st.FirstIndex != 1 || st.Segments != 1 || st.Appends != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= int64(headerSize) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	if st.LastFsync.IsZero() {
		t.Fatal("LastFsync zero under FsyncAlways")
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.ReplayRecords != 3 {
		t.Fatalf("replay records = %d, want 3", st.ReplayRecords)
	}
}
