package snapstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzSnapshotDecode hardens restore: arbitrary bytes as a shard's
// snapshot file must never panic Load, and Load must never allocate
// more than a constant factor of the file's size — every count in the
// format is checked against the bytes that remain before anything is
// sized from it. Each input is tried as is and with its CRC-32C
// recomputed, so mutations reach the decoder behind the checksum.
// Seeds under testdata/fuzz are a real spill of the test fleet, its
// truncations, a flipped bit and a version 1 file; the fuzzer mutates
// from there.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(spillBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(store.Dir(), "shard00.snap")
		for _, in := range [][]byte{data, withCRC(data)} {
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = store.Load("shard00") // an error is a clean refusal; only panics and allocation count
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxLoadAlloc(len(in)) {
				t.Fatalf("Load of %d bytes allocated %d bytes, over the %d bound", len(in), alloc, maxLoadAlloc(len(in)))
			}
		}
	})
}

// maxLoadAlloc bounds what Load may allocate for a file of n bytes: the
// read buffer, decoded values at most a few times the size of their
// encoding (a map entry or slice header per minimum-size record), and a
// fixed allowance for opening the file.
func maxLoadAlloc(n int) uint64 { return uint64(16*n + 64<<10) }

// withCRC returns data with its trailing 4 bytes replaced by the
// CRC-32C of everything before them (data itself when it is too short
// to hold a checksum).
func withCRC(data []byte) []byte {
	if len(data) < crcSize {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-crcSize]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

// spillBytes returns the file Save writes for the test fleet under
// shard00.
func spillBytes(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(spill(tb, "shard00").Dir(), "shard00.snap"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
