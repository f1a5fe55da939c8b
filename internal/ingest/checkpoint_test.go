package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/wal"
)

// mapModel is the reference the dense runs are checked against: the
// store as it was kept before them, one day map per vehicle.
type mapModel struct {
	days                             map[string]map[int64]float64
	lastSeq, reports                 map[string]uint64
	seq, accepted, rejected, changed uint64
}

func newMapModel() *mapModel {
	return &mapModel{days: map[string]map[int64]float64{}, lastSeq: map[string]uint64{}, reports: map[string]uint64{}}
}

func (m *mapModel) apply(batch []Report) {
	for _, r := range batch {
		if validate(r, time.Now()) != nil {
			m.rejected++
			continue
		}
		m.accepted++
		m.reports[r.VehicleID]++
		days := m.days[r.VehicleID]
		if days == nil {
			days = map[int64]float64{}
			m.days[r.VehicleID] = days
		}
		day := epochDay(r.Date)
		if old, ok := days[day]; ok && old == r.Seconds {
			continue
		}
		days[day] = r.Seconds
		m.seq++
		m.changed++
		m.lastSeq[r.VehicleID] = m.seq
	}
}

// raw is the model's contiguous series for one vehicle.
func (m *mapModel) raw(id string) (int64, []float64) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for day := range m.days[id] {
		lo, hi = min(lo, day), max(hi, day)
	}
	u := make([]float64, hi-lo+1)
	for day, sec := range m.days[id] {
		u[day-lo] = sec
	}
	return lo, u
}

func (m *mapModel) hash(id string) uint64 {
	var h uint64
	for day, sec := range m.days[id] {
		h ^= dayHash(day, sec)
	}
	return h
}

// mustMatchModel checks every read of s against the model: Fleet,
// RawSeries, Stats, Hash and DirtySince.
func mustMatchModel(t *testing.T, s *Store, m *mapModel, label string) {
	t.Helper()
	ids := make([]string, 0, len(m.days))
	for id := range m.days {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	st := s.Stats()
	if st.Seq != m.seq || st.Accepted != m.accepted || st.Rejected != m.rejected || st.Changed != m.changed {
		t.Fatalf("%s: stats seq=%d accepted=%d rejected=%d changed=%d, model %d/%d/%d/%d", label,
			st.Seq, st.Accepted, st.Rejected, st.Changed, m.seq, m.accepted, m.rejected, m.changed)
	}
	if len(st.PerVehicle) != len(ids) {
		t.Fatalf("%s: %d vehicles, model %d", label, len(st.PerVehicle), len(ids))
	}
	var want []engine.Vehicle
	var prepErr error
	for i, id := range ids {
		lo, u := m.raw(id)
		start := time.Unix(lo*86400, 0).UTC()
		if gs, gu, ok := s.RawSeries(id); !ok || !gs.Equal(start) || !reflect.DeepEqual(gu, u) {
			t.Fatalf("%s: %s raw series from %v (%d days), model from %v (%d days)", label, id, gs, len(gu), start, len(u))
		}
		wantStats := VehicleStats{
			ID:       id,
			Days:     len(m.days[id]),
			SpanDays: len(u),
			FirstDay: dayString(lo),
			LastDay:  dayString(lo + int64(len(u)) - 1),
			Hash:     fmt.Sprintf("%016x", m.hash(id)),
			Reports:  m.reports[id],
		}
		got := st.PerVehicle[i]
		got.LastReport = ""
		if got != wantStats {
			t.Fatalf("%s: stats %+v, model %+v", label, got, wantStats)
		}
		if h, ok := s.Hash(id); !ok || h != m.hash(id) {
			t.Fatalf("%s: %s hash %x, model %x", label, id, h, m.hash(id))
		}
		if prep, err := dataprep.Prepare(id, start, u, s.allowance); err != nil {
			prepErr = err
		} else {
			want = append(want, engine.Vehicle{Series: prep.Series, Start: prep.Start})
		}
	}
	for _, since := range []uint64{0, m.seq / 3, m.seq / 2, m.seq - 1, m.seq} {
		var dirty []string
		for _, id := range ids {
			if m.lastSeq[id] > since {
				dirty = append(dirty, id)
			}
		}
		if got := s.DirtySince(since, nil); !reflect.DeepEqual(got, dirty) {
			t.Fatalf("%s: DirtySince(%d) = %v, model %v", label, since, got, dirty)
		}
	}
	fleet, err := s.Fleet(context.Background())
	if (err != nil) != (prepErr != nil) {
		t.Fatalf("%s: Fleet error %v, model preparation error %v", label, err, prepErr)
	}
	if err == nil {
		if len(fleet) != len(want) {
			t.Fatalf("%s: Fleet hands out %d vehicles, model %d", label, len(fleet), len(want))
		}
		for i := range want {
			if !sameVehicle(fleet[i], want[i]) {
				t.Fatalf("%s: Fleet's %s differs from Prepare of the model's run", label, want[i].Series.ID)
			}
		}
	}
}

// randomTelemetry drives s and m through the same random batches on
// both doors: tail days, backfills before a vehicle's first day in
// descending order, gap fills, corrections, reported zeros,
// re-deliveries and rejected reports. check runs after every batch.
func randomTelemetry(t *testing.T, rnd *rand.Rand, s *Store, m *mapModel, batches int, check func(label string)) {
	t.Helper()
	ids := []string{"v01", "v02", "v03", "v04", "v05"}
	first := map[string]int{}
	last := map[string]int{}
	for b := 0; b < batches; b++ {
		var batch []Report
		for i := 0; i < 1+rnd.Intn(40); i++ {
			id := ids[rnd.Intn(len(ids))]
			lo, seen := first[id]
			hi := last[id]
			if !seen {
				lo = 400 + rnd.Intn(400)
				hi = lo
			}
			sec := float64(3600 + rnd.Intn(40000))
			var d int
			switch k := rnd.Intn(10); {
			case !seen || k < 3: // a tail day, sometimes past a gap
				d = hi + 1 + rnd.Intn(3)*rnd.Intn(2)
			case k < 5: // a backfill run, descending
				for j := 0; j < 1+rnd.Intn(70); j++ {
					batch = append(batch, report(id, lo-1-j, float64(3600+rnd.Intn(40000))))
				}
				d = lo - 71 - rnd.Intn(5)
			case k == 5: // a reported zero
				d, sec = lo+rnd.Intn(hi-lo+1), 0
			case k == 6: // a re-delivery
				d = lo + rnd.Intn(hi-lo+1)
				if old, ok := m.days[id][epochDay(day0.AddDate(0, 0, d))]; ok {
					sec = old
				}
			case k == 7: // rejected
				d, sec = hi, -1
			default: // a gap fill or a correction
				d = lo + rnd.Intn(hi-lo+1)
			}
			batch = append(batch, report(id, d, sec))
			for _, r := range batch {
				if r.VehicleID == id && r.Seconds >= 0 {
					off := int(epochDay(r.Date) - epochDay(day0))
					if !seen || off < lo {
						lo = off
					}
					if !seen || off > hi {
						hi = off
					}
					seen = true
				}
			}
			first[id], last[id] = lo, hi
		}
		if rnd.Intn(2) == 0 {
			if _, err := s.UpsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			frame, err := EncodeWireFrame(batch)
			if err != nil {
				t.Fatal(err)
			}
			payload, _, err := wal.ParseFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.UpsertBinary(payload, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.apply(batch)
		check(fmt.Sprintf("batch %d", b))
	}
}

// TestDayHashIsFNV1a pins the per-day content hash to FNV-1a over the
// day and the seconds' bits, eight little-endian bytes each: stored
// hashes, prep-cache keys and checkpoints all depend on it.
func TestDayHashIsFNV1a(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		day, sec := rnd.Int63()-rnd.Int63(), rnd.NormFloat64()*1e4
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(day)))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(sec)))
		if got, want := dayHash(day, sec), h.Sum64(); got != want {
			t.Fatalf("dayHash(%d, %v) = %x, FNV-1a gives %x", day, sec, got, want)
		}
	}
}

// TestRunMatchesMapModelProperty: the dense runs answer every read
// exactly as the day maps they replaced did, and after every batch each
// vehicle Fleet derives equals dataprep.Prepare of its run bit for bit.
func TestRunMatchesMapModelProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s, m := New(0), newMapModel()
		randomTelemetry(t, rnd, s, m, 60, func(label string) {
			mustMatchModel(t, s, m, fmt.Sprintf("seed %d %s", seed, label))
		})
	}
}

// sameVehicle reports whether two vehicles hold the same start and the
// same series bit for bit, cycles included.
func sameVehicle(a, b engine.Vehicle) bool {
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	va, vb := a.Series, b.Series
	if !a.Start.Equal(b.Start) || va.ID != vb.ID || va.Allowance != vb.Allowance ||
		!sameBits(va.U, vb.U) || !sameBits(va.L, vb.L) ||
		!reflect.DeepEqual(va.C, vb.C) || !reflect.DeepEqual(va.D, vb.D) || len(va.Cycles) != len(vb.Cycles) {
		return false
	}
	for i, c := range va.Cycles {
		d := vb.Cycles[i]
		if c.Index != d.Index || c.Start != d.Start || c.End != d.End || c.Complete != d.Complete ||
			math.Float64bits(c.Usage) != math.Float64bits(d.Usage) {
			return false
		}
	}
	return true
}

// mustEqualRecords checks two record sets hold the same runs and
// scalars, whatever slack their buffers carry.
func mustEqualRecords(t *testing.T, got, want map[string]*vehicleRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if g == nil {
			t.Fatalf("record %q missing", id)
		}
		if g.minDay() != w.minDay() || g.n != w.n || g.hash != w.hash || g.lastSeq != w.lastSeq ||
			g.reports != w.reports || !g.lastReport.Equal(w.lastReport) || !reflect.DeepEqual(g.run(), w.run()) {
			t.Fatalf("record %q: first day %d, %d days, hash %x, seq %d, %d reports; want %d, %d, %x, %d, %d",
				id, g.minDay(), g.n, g.hash, g.lastSeq, g.reports, w.minDay(), w.n, w.hash, w.lastSeq, w.reports)
		}
		for k := range w.run() {
			if g.reported(g.lo+k) != w.reported(w.lo+k) {
				t.Fatalf("record %q: day %d reported %v, want %v", id, w.minDay()+int64(k), g.reported(g.lo+k), w.reported(w.lo+k))
			}
		}
	}
}

// TestCheckpointRoundTrip: encoding a store's records and decoding
// them gives equal records and header, a store installed from them
// answers every read as the model does, and re-encoding gives the same
// bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	s, m := New(0), newMapModel()
	randomTelemetry(t, rnd, s, m, 40, func(string) {})
	ck := &checkpoint{
		walIndex: 17, seq: s.seq, accepted: s.accepted, rejected: s.rejected, changed: s.changed,
		savedAt: time.Now(), vehicles: s.vehicles,
	}
	data := encodeCheckpoint(ck)
	got, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.walIndex != ck.walIndex || got.seq != ck.seq || got.accepted != ck.accepted ||
		got.rejected != ck.rejected || got.changed != ck.changed || !got.savedAt.Equal(ck.savedAt) {
		t.Fatalf("header %+v, want %+v", got, ck)
	}
	mustEqualRecords(t, got.vehicles, s.vehicles)

	restored := New(0)
	restored.restoreCheckpoint(got, len(data))
	mustMatchModel(t, restored, m, "restored")
	if again := encodeCheckpoint(got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding a decoded checkpoint changed its bytes")
	}
}

// version1Batches are the telemetry the version 1 checkpoint fixture
// (testdata/checkpoint-v1) holds. The first four batches are covered by
// its checkpoint and the last one lies in its WAL past it. Together
// they exercise every run shape: gaps, a reported zero, an ascending
// and a descending fill, a sparse span, a correction, a re-delivery
// and a rejected report.
func version1Batches() [][]Report {
	at := func(id string, d int, sec float64) Report {
		return Report{VehicleID: id, Date: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d), Seconds: sec}
	}
	var b1, b2 []Report
	for d := 0; d < 40; d++ {
		switch {
		case d >= 10 && d < 15: // a gap
		case d == 20:
			b1 = append(b1, at("v01", d, 0)) // a reported zero
		default:
			b1 = append(b1, at("v01", d, float64(1000+37*d)))
		}
	}
	for d := 59; d >= 0; d-- {
		b2 = append(b2, at("v02", d, float64(20000-11*d)))
	}
	b3 := []Report{at("v03", 300, 7200), at("v03", 0, 3600)}
	b4 := []Report{at("v01", 5, 1), at("v02", 3, 20000-33), at("v03", 150, -1)}
	b5 := []Report{at("v01", 44, 500), at("v01", 40, 400), at("v04", 2, 0), at("v04", 0, 86400)}
	return [][]Report{b1, b2, b3, b4, b5}
}

// TestOpenDurableMigratesVersion1Checkpoint: a WAL directory whose
// checkpoint a build before version 2 wrote (a gob stream) opens to the
// content its telemetry holds, and the open rewrites the checkpoint as
// version 2, covering the same WAL index.
func TestOpenDurableMigratesVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir("testdata/checkpoint-v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata/checkpoint-v1", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, checkpointFile)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpointV1(old); err != nil {
		t.Fatalf("the fixture is not a version 1 checkpoint: %v", err)
	}

	ref := New(0)
	for _, b := range version1Batches() {
		if _, err := ref.UpsertBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	wantFleet, err := ref.Fleet(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		s, err := OpenDurable(0, DurableOptions{Dir: dir, Fsync: wal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("open %d", pass)
		mustEqualStores(t, s, ref, nil, label)
		if fleet, err := s.Fleet(context.Background()); err != nil || !reflect.DeepEqual(fleet, wantFleet) {
			t.Fatalf("%s: Fleet differs from the reference (%v)", label, err)
		}
		if ws := s.Stats().WAL; ws.CheckpointIndex != 4 || ws.ReplayRecords != 1 {
			t.Fatalf("%s: checkpoint index %d and %d replayed records, want 4 and 1", label, ws.CheckpointIndex, ws.ReplayRecords)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeCheckpoint(data); err != nil {
			t.Fatalf("%s: checkpoint not rewritten as version %d: %v", label, ckptVersion, err)
		}
		if ws := s.Stats().WAL; ws.CheckpointBytes != len(data) {
			t.Fatalf("%s: checkpoint_bytes %d, file %d", label, ws.CheckpointBytes, len(data))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCheckpointDecode hardens the checkpoint loader: arbitrary bytes
// must be refused or decoded without a panic and without allocating
// more than a small multiple of their own size, and any input it
// accepts must re-encode to the same bytes. Each input is tried as is
// and with its CRC-32C recomputed, so mutations reach the checks behind
// the checksum. The seeds (in code and under testdata/fuzz) are a valid
// file and one break of each check.
func FuzzCheckpointDecode(f *testing.F) {
	for _, seed := range checkpointSeeds() {
		f.Add(seed.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withCkptCRC(data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck, err := decodeCheckpoint(in)
			runtime.ReadMemStats(&after)
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 16*uint64(len(in))+64<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(in), grown)
			}
			if err != nil {
				continue
			}
			if again := encodeCheckpoint(ck); !bytes.Equal(again, in) {
				t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(in), len(again))
			}
		}
	})
}

// TestCheckpointDecodeRefusesDamage: the valid seed decodes and every
// other seed, each breaking one check, is refused.
func TestCheckpointDecodeRefusesDamage(t *testing.T) {
	for i, c := range checkpointSeeds() {
		_, err := decodeCheckpoint(c.payload)
		if valid := i == 0; (err == nil) != valid {
			t.Errorf("%s: decode error %v", c.name, err)
		}
	}
}

// withCkptCRC returns a copy of data with its trailing 4 bytes replaced
// by the CRC-32C of everything before them (data itself when it is too
// short to hold a checksum).
func withCkptCRC(data []byte) []byte {
	if len(data) < ckptCRCSize {
		return data
	}
	out := append([]byte(nil), data...)
	body := out[:len(out)-ckptCRCSize]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

// checkpointSeeds is one valid checkpoint and, derived from it, a file
// that breaks each check the decoder makes. Breaks past the header
// carry a recomputed CRC, so they reach the check they target.
func checkpointSeeds() []codecCase {
	s := New(0)
	for _, b := range version1Batches() {
		if _, err := s.UpsertBatch(b); err != nil {
			panic(err)
		}
	}
	valid := encodeCheckpoint(&checkpoint{
		walIndex: 5, seq: s.seq, accepted: s.accepted, rejected: s.rejected, changed: s.changed,
		savedAt: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC), vehicles: s.vehicles,
	})
	edit := func(at int, bytes ...byte) []byte {
		out := append([]byte(nil), valid...)
		copy(out[at:], bytes)
		return withCkptCRC(out)
	}
	// The first vehicle ("v01", 45 days) starts after the header (head,
	// five counters, the save time and the vehicle count).
	v := ckptHeadSize + 5*8 + 12 + 4
	scalars := v + 4 + 3 + 3*8 + 12 // ID, hash, last sequence, reports, last report
	bitmap := scalars + 8 + 4 + 4
	values := bitmap + 8
	return []codecCase{
		{"valid", valid},
		{"empty", []byte{}},
		{"magic-only", []byte(ckptMagic)},
		{"bad-crc", func() []byte { out := append([]byte(nil), valid...); out[v] ^= 1; return out }()},
		{"cut", withCkptCRC(valid[:len(valid)-9])},
		{"trailing-byte", withCkptCRC(append(append([]byte(nil), valid[:len(valid)-ckptCRCSize]...), 0, 0, 0, 0, 0))},
		{"bad-version", edit(len(ckptMagic), 3)},
		{"huge-vehicle-count", edit(v-4, 0xff, 0xff, 0xff, 0x7f)},
		{"bad-nanoseconds", edit(ckptHeadSize+5*8+8, 0xff, 0xff, 0xff, 0xff)},
		{"ids-out-of-order", edit(v+4, 'w')},
		{"wrong-hash", edit(v+4+3, 0xaa)},
		{"seq-past-store", edit(v+4+3+8, 0xff, 0xff)},
		{"day-before-1990", edit(scalars, 0, 0, 0, 0, 0, 0, 0, 0)},
		{"huge-span", edit(scalars+8, 0xff, 0xff, 0xff, 0xff)},
		{"wrong-day-count", edit(scalars+12, 99)},
		{"first-day-unreported", edit(bitmap, 0xfe)},
		{"gap-not-zero", edit(values+8*12, 1)},
		{"negative-seconds", edit(values+7, 0x80)},
	}
}

// BenchmarkCheckpointReopen measures a checkpoint save (with fsync)
// and a reopen from it, the restart after a persisted generation, at
// the fleetbench boot shape (48 vehicles) and at 1k (1 008 vehicles ×
// 1 735 days). It uses only the exported API.
func BenchmarkCheckpointReopen(b *testing.B) {
	for _, shape := range []struct{ vehicles, days int }{{48, 1335}, {1008, 1735}} {
		b.Run(fmt.Sprintf("vehicles=%d", shape.vehicles), func(b *testing.B) {
			dir := b.TempDir()
			opts := DurableOptions{Dir: dir, Fsync: wal.FsyncNever}
			s, err := OpenDurable(0, opts)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
			for v := 0; v < shape.vehicles; v++ {
				batch := make([]Report, 0, shape.days)
				for d := 0; d < shape.days; d++ {
					if (v+d)%23 == 0 {
						continue // an unreported day
					}
					batch = append(batch, Report{VehicleID: fmt.Sprintf("v%04d", v), Date: start.AddDate(0, 0, d), Seconds: float64((v*7919 + d*104729) % 50000)})
				}
				if _, err := s.UpsertBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			var save, open time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One new tail day, so the checkpoint is not a no-op.
				tail := Report{VehicleID: "v0000", Date: start.AddDate(0, 0, shape.days+i), Seconds: 3600}
				if _, err := s.UpsertBatch([]Report{tail}); err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				if _, err := s.CheckpointAndCompact(); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if s, err = OpenDurable(0, opts); err != nil {
					b.Fatal(err)
				}
				save, open = save+t1.Sub(t0), open+time.Since(t2)
			}
			b.StopTimer()
			s.Close()
			b.ReportMetric(float64(save.Microseconds())/1e3/float64(b.N), "save-ms/op")
			b.ReportMetric(float64(open.Microseconds())/1e3/float64(b.N), "open-ms/op")
		})
	}
}
