package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzWALOpen hardens crash recovery: arbitrary bytes as a segment file
// must never panic Open, and Replay must return exactly the intact
// prefix Open kept — the frames ParseFrame accepts in order after an
// intact header, up to the first one it rejects. A damaged file must be
// cut to that prefix (removed when it holds no record), and a second
// Open must find nothing left to truncate. Seeds under testdata/fuzz
// cover torn headers and frames, bad magic, checksum mismatches and
// insane lengths.
func FuzzWALOpen(f *testing.F) {
	for _, seed := range segmentSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := segPath(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, want, keep := intactPrefix(data)

		for pass := 0; pass < 2; pass++ {
			l, err := Open(dir, Options{Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("pass %d: Open: %v", pass, err)
			}
			if pass == 1 && l.Stats().TruncatedTailEvents != 0 {
				t.Fatalf("second Open truncated again")
			}
			var got [][]byte
			err = l.Replay(func(idx uint64, payload []byte) error {
				if wantIdx := first + uint64(len(got)); idx != wantIdx {
					t.Fatalf("pass %d: record %d has index %d, want %d", pass, len(got), idx, wantIdx)
				}
				got = append(got, append([]byte(nil), payload...))
				return nil
			})
			if err != nil {
				t.Fatalf("pass %d: Replay: %v", pass, err)
			}
			if len(got) != len(want) {
				t.Fatalf("pass %d: replayed %d records, the intact prefix holds %d", pass, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("pass %d: record %d differs from the intact prefix", pass, i)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}

		st, err := os.Stat(path)
		intact := keep > 0 && keep == len(data)
		switch {
		case !intact && len(want) == 0:
			if !os.IsNotExist(err) {
				t.Fatalf("a segment with no intact record survived Open (%v)", err)
			}
		case err != nil:
			t.Fatal(err)
		case st.Size() != int64(keep):
			t.Fatalf("segment is %d bytes after Open, the intact prefix %d", st.Size(), keep)
		}
	})
}

// intactPrefix is the oracle: the first index and payloads of the
// frames ParseFrame accepts after an intact header, and the byte length
// they span (0 without a header).
func intactPrefix(data []byte) (first uint64, payloads [][]byte, keep int) {
	if len(data) < headerSize || string(data[:len(segMagic)]) != segMagic {
		return 0, nil, 0
	}
	first = binary.BigEndian.Uint64(data[len(segMagic):headerSize])
	keep = headerSize
	for {
		payload, n, err := ParseFrame(data[keep:])
		if err != nil {
			return first, payloads, keep
		}
		payloads = append(payloads, payload)
		keep += n
	}
}

// segmentCase is one named segment file.
type segmentCase struct {
	name string
	data []byte
}

// segmentSeeds is one valid three-record segment plus every classic
// corruption of it.
func segmentSeeds() []segmentCase {
	header := append([]byte(segMagic), 0, 0, 0, 0, 0, 0, 0, 1)
	valid := header
	var offsets []int // start of each frame
	for _, p := range []string{"first", "second record", ""} {
		offsets = append(offsets, len(valid))
		valid = AppendFrame(valid, []byte(p))
	}
	edit := func(i int, fn func(b []byte)) []byte {
		out := append([]byte(nil), valid...)
		fn(out[i:])
		return out
	}
	return []segmentCase{
		{"valid", valid},
		{"empty", []byte{}},
		{"header-only", header},
		{"cut-header", header[:headerSize-3]},
		{"bad-magic", edit(0, func(b []byte) { b[0] ^= 0xff })},
		{"cut-frame-head", valid[:offsets[1]+5]},
		{"cut-payload", valid[:offsets[2]-2]},
		{"crc-mismatch-middle", edit(offsets[1]+4, func(b []byte) { b[0] ^= 0xff })},
		{"payload-flip-middle", edit(offsets[1]+FrameHead, func(b []byte) { b[0] ^= 0xff })},
		{"oversized-length", edit(offsets[1], func(b []byte) { binary.LittleEndian.PutUint32(b, maxRecordBytes+1) })},
		{"length-past-eof", edit(offsets[2], func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<20) })},
		{"header-then-garbage", append(append([]byte(nil), header...), 0xaa, 0xbb)},
	}
}
