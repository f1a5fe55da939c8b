package ingest

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/wal"
)

// FuzzBinaryFrame is the parser-hardening target the binary door relies
// on: arbitrary bytes go through the exact transport path — frame
// parse, structure walk, store application — and must reject cleanly.
// No panic, no over-read (checked-in seeds under testdata/fuzz cover
// truncated frames, oversized length fields, CRC mismatches, bad
// versions, hostile group counts and trailing bytes; the fuzzer
// mutates from there).
func FuzzBinaryFrame(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := wal.ParseFrame(data)
		if err != nil {
			return // malformed frame, cleanly rejected
		}
		if n > len(data) {
			t.Fatalf("ParseFrame consumed %d of %d bytes (over-read)", n, len(data))
		}
		if len(payload) > n-wal.FrameHead {
			t.Fatalf("ParseFrame returned %d payload bytes from a %d-byte frame (over-read)", len(payload), n)
		}

		s := New(600_000)
		total, walkErr := WalkWireGroups(payload, nil)
		res, err := s.UpsertBinary(payload, 100_000)
		if walkErr != nil {
			// A structurally bad batch must reject wholesale: no error
			// from the walk may coexist with applied reports.
			if err == nil {
				t.Fatalf("walk rejected (%v) but UpsertBinary accepted %+v", walkErr, res)
			}
			if st := s.Stats(); st.Accepted != 0 || st.Rejected != 0 {
				t.Fatalf("structure error %v but store counters moved: %+v", walkErr, st)
			}
			return
		}
		if err != nil {
			return // batch cap or journal-less store conditions
		}
		if res.Accepted+res.Rejected != total {
			t.Fatalf("walk counted %d reports, upsert accounted %d+%d", total, res.Accepted, res.Rejected)
		}
	})
}

// fuzzSeeds builds the in-code complement of the checked-in corpus —
// each classic failure shape, derived from one valid frame.
func fuzzSeeds() [][]byte {
	valid, err := EncodeWireFrame(wireReports())
	if err != nil {
		panic(err)
	}
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0xff
		return out
	}
	seeds := [][]byte{
		valid,
		{},                         // empty
		valid[:4],                  // cut inside the frame head
		valid[:len(valid)-3],       // cut inside the payload
		flip(valid, 0),             // length field corrupted (oversize / mismatch)
		flip(valid, 4),             // CRC corrupted
		flip(valid, wal.FrameHead), // version byte corrupted
		append(append([]byte(nil), valid...), 0xaa), // trailing byte
	}
	// A structurally valid frame whose payload lies: insane group count.
	lying := append([]byte(nil), valid[wal.FrameHead:]...)
	lying[1], lying[2], lying[3], lying[4] = 0xff, 0xff, 0xff, 0xff
	seeds = append(seeds, wal.AppendFrame(nil, lying))
	return seeds
}

// FuzzJournalReplay hardens the boot-time replay walk: arbitrary bytes
// as a journal record payload must either error or apply — no panic,
// no over-read (the payload's capacity is cut to its length, so any
// read past the end panics). An applied record leaves the store
// consistent: its header counters, one sequence step per changed
// report, a run that agrees with its bitmap, day count and hash, and
// every stored second inside the range the doors accept. Seeds are the
// codec cases of TestJournalRecordCodecRoundtrip, checked in under
// testdata/fuzz.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range journalSeeds() {
		f.Add(seed.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s := New(0)
		if err := replayRecord(s, payload[:len(payload):len(payload)]); err != nil {
			return
		}
		st := s.Stats()
		if st.Accepted != uint64(binary.LittleEndian.Uint32(payload[1:])) ||
			st.Rejected != uint64(binary.LittleEndian.Uint32(payload[5:])) {
			t.Fatalf("counters accepted=%d rejected=%d disagree with the record header", st.Accepted, st.Rejected)
		}
		if st.Seq != st.Changed {
			t.Fatalf("seq %d after %d changed reports", st.Seq, st.Changed)
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		for id, rec := range s.vehicles {
			run := rec.run()
			if !rec.reported(rec.lo) || !rec.reported(rec.hi) {
				t.Fatalf("vehicle %q run [%d, %d] does not start and end on a reported day", id, rec.lo, rec.hi)
			}
			var hash uint64
			days := 0
			for k, sec := range run {
				if !rec.reported(rec.lo + k) {
					if math.Float64bits(sec) != 0 {
						t.Fatalf("vehicle %q gap day %d holds %v", id, rec.minDay()+int64(k), sec)
					}
					continue
				}
				if err := validateSeconds(sec); err != nil {
					t.Fatalf("vehicle %q day %d stored: %v", id, rec.minDay()+int64(k), err)
				}
				hash ^= dayHash(rec.minDay()+int64(k), sec)
				days++
			}
			if hash != rec.hash || days != rec.n {
				t.Fatalf("vehicle %q hash %x over %d days, run folds to %x over %d", id, rec.hash, rec.n, hash, days)
			}
		}
	})
}

// journalSeeds is one valid record, a report-less one (an all
// re-delivery batch), every malformed shape derived from the first and
// one record per out-of-range second.
func journalSeeds() []codecCase {
	valid := encodeJournalRecord(journalRecord{
		Accepted: 4,
		Rejected: 1,
		Changed: []journalReport{
			{ID: "v01", Day: 16436, Seconds: 18000.5},
			{ID: "v01", Day: 16436, Seconds: 17000},
			{ID: "v02", Day: 16437, Seconds: 0},
			{ID: "v01", Day: 16440, Seconds: 100},
		},
	})
	return append([]codecCase{
		{"valid", valid},
		{"no-reports", encodeJournalRecord(journalRecord{Accepted: 3})},
	}, append(journalCodecErrors(valid), badSecondsRecords()...)...)
}
