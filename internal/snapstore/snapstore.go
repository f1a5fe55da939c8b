// Package snapstore persists engine snapshots so a rebooted
// fleetserver (or one shard of a cluster) serves its last trained
// generation immediately instead of cold-training, and — because a
// snapshot carries its per-vehicle model keys, donor-pool key and models —
// retrains *incrementally* from the persisted state: only vehicles
// whose telemetry since the spill moved a model key (completed a
// maintenance cycle, flipped a donor, ...) train again.
//
// One snapshot is one file, <dir>/<shard>.snap, written atomically
// (temp file, fsync, rename, directory fsync) so a crash mid-spill never
// corrupts the restorable generation and a completed Save survives a
// power loss; each successful spill replaces the previous one, so the
// directory holds exactly the latest generation per shard.
//
// A successful Save is also the durability gate for the telemetry WAL:
// the fleetserver's snapshot hook checkpoints the ingest store and
// compacts its journal only after the generation is on disk (see
// ingest.CheckpointAndCompact), so a WAL segment is never dropped
// before a persisted generation's checkpoint covers it.
//
// # File format (version 2)
//
// Every integer is little-endian, every float is its IEEE 754 bits, a
// string or byte run is a u32 length and its bytes, and a time is
// time.Time.MarshalBinary's bytes (so a restored forecast keeps its
// zone). In order:
//
//   - the magic "reprosnap\n" and a u32 format version;
//   - the shard name and the spill time;
//   - the snapshot's scalars (generation, pool and config hashes, plan
//     flags, reuse counts, build time and duration);
//   - the per-vehicle rows: statuses and forecasts in ID order, then
//     forecast errors, failed vehicles and model keys sorted by ID;
//   - the model table: each distinct model once (deduplicated by
//     pointer identity), as a u8 family tag, a u32 length and the
//     family's AppendBinary encoding — flat node or coefficient arrays;
//   - the per-vehicle model index: ID and table position, sorted by ID;
//   - a CRC-32C of every byte before it.
//
// Save streams the file one model at a time through one reused buffer.
// A restore decodes in two stages over one decoder. LoadRows reads the
// file once, checks the CRC over every byte, and decodes the rows — all
// a restarted server needs to serve, since forecasts are precomputed
// rows and no read touches a model. Rows.Models then decodes the model
// table and the index, which only the next build reads; the fleetserver
// runs it after the rows already serve (see engine.Restore). Load is
// the two stages in a row. Every count is bounded by the bytes that
// remain, so a damaged or hostile file is refused without allocating
// past its own size. Vehicles that shared a model when it was spilled
// (every vehicle the §4.4.1 unified model serves) share one decoded
// model after Models.
//
// # Version policy
//
// The version moves with every change to what the file holds, and
// Load reads only the current one. An older file — including a version
// 1 file, which was a gob stream — is refused with an error; the
// fleetserver logs it and cold-trains, and since the ingest checkpoint
// and the WAL are the durable record, no acknowledged report is lost.
package snapstore

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
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/ml/linreg"
	"repro/internal/ml/svr"
	"repro/internal/ml/tree"
)

// magic identifies a snapstore file; version gates format evolution.
const (
	magic   = "reprosnap\n"
	version = 2
)

// headSize is the magic plus the u32 version; crcSize the trailing
// checksum.
const (
	headSize = len(magic) + 4
	crcSize  = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errVersion marks a file written in a format this build does not read.
var errVersion = errors.New("unsupported snapshot format version")

// codecModel is what a model table entry holds: a regressor with the
// family codec every ml sub-package (and core.Baseline) implements.
type codecModel interface {
	ml.Regressor
	AppendBinary([]byte) ([]byte, error)
	UnmarshalBinary([]byte) error
}

// Model family tags of the model table.
const (
	familyBaseline = 1 + iota
	familyLinReg
	familySVR
	familyTree
	familyForest
	familyGBM
)

// familyOf tags a model, or returns 0 for a type the format cannot hold.
func familyOf(m ml.Regressor) byte {
	switch m.(type) {
	case *core.Baseline:
		return familyBaseline
	case *linreg.Model:
		return familyLinReg
	case *svr.Model:
		return familySVR
	case *tree.Model:
		return familyTree
	case *forest.Model:
		return familyForest
	case *gbm.Model:
		return familyGBM
	}
	return 0
}

// newModel returns an empty model of a family, or nil for an unknown tag.
func newModel(family byte) codecModel {
	switch family {
	case familyBaseline:
		return new(core.Baseline)
	case familyLinReg:
		return new(linreg.Model)
	case familySVR:
		return new(svr.Model)
	case familyTree:
		return new(tree.Model)
	case familyForest:
		return new(forest.Model)
	case familyGBM:
		return new(gbm.Model)
	}
	return nil
}

// Store spills and loads per-shard snapshots under one directory.
type Store struct {
	dir string
}

// New opens (creating if needed) a snapshot directory.
func New(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snapstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	// A process killed mid-Save never ran its deferred remove; each such
	// temp file can be a whole spill. No Save of this store runs yet.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	for _, e := range entries {
		if ok, _ := filepath.Match("*.snap.tmp*", e.Name()); ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("snapstore: removing a stale temp file: %w", err)
			}
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// path maps a shard name to its snapshot file, refusing names that
// would escape the directory.
func (s *Store) path(shard string) (string, error) {
	if shard == "" {
		return "", fmt.Errorf("snapstore: empty shard name")
	}
	if strings.ContainsAny(shard, "/\\") || shard == "." || shard == ".." {
		return "", fmt.Errorf("snapstore: invalid shard name %q", shard)
	}
	return filepath.Join(s.dir, shard+".snap"), nil
}

// Save atomically persists a snapshot as the shard's restorable
// generation: the bytes land in a temp file in the same directory,
// which is fsynced and renamed over the previous spill, and the
// directory is fsynced so the rename itself is durable.
func (s *Store) Save(shard string, snap *engine.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("snapstore: Save with a nil snapshot")
	}
	dst, err := s.path(shard)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, shard+".snap.tmp*")
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	w := bufio.NewWriterSize(tmp, 64<<10)
	writeErr := func() error {
		if err := encode(w, shard, snap); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return tmp.Sync()
	}()
	if cerr := tmp.Close(); writeErr == nil {
		writeErr = cerr
	}
	if writeErr != nil {
		return fmt.Errorf("snapstore: spilling shard %s: %w", shard, writeErr)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("snapstore: spilling shard %s: %w", shard, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a shard's persisted snapshot, models and all: LoadRows,
// then Rows.Models. A missing file returns an error satisfying
// errors.Is(err, os.ErrNotExist) — the "nothing to restore, cold-train
// instead" signal.
func (s *Store) Load(shard string) (*engine.Snapshot, error) {
	rows, err := s.LoadRows(shard)
	if err != nil {
		return nil, err
	}
	if rows.Snapshot.Models, err = rows.Models(); err != nil {
		return nil, err
	}
	return rows.Snapshot, nil
}

// Rows is a snapshot file that was read and checked whole, with its
// rows decoded and its model table not yet: Snapshot can serve every
// read, and Models decodes what the next build reuses.
type Rows struct {
	// Snapshot holds the file's rows; its Models is nil.
	Snapshot *engine.Snapshot
	path     string
	d        *ml.Decoder // at the model table
}

// LoadRows reads a shard's persisted snapshot, checks its CRC over
// every byte, and decodes everything but the model table: header,
// statuses, forecasts, errors and model keys. A missing file returns an
// error satisfying errors.Is(err, os.ErrNotExist).
func (s *Store) LoadRows(shard string) (*Rows, error) {
	src, err := s.path(shard)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	data := make([]byte, st.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("snapstore: reading %s: %w", src, err)
	}
	rows := &Rows{path: src}
	if rows.Snapshot, rows.d, err = decodeRows(data, shard); err != nil {
		return nil, fmt.Errorf("snapstore: %s: %w", src, err)
	}
	return rows, nil
}

// Models decodes the model table and the per-vehicle model index that
// follow the rows. It consumes the rest of the file, and drops the
// decoder so the file's bytes can be freed: a second call fails.
func (r *Rows) Models() (map[string]ml.Regressor, error) {
	d := r.d
	r.d = nil
	if d == nil {
		return nil, fmt.Errorf("snapstore: %s: model table already decoded", r.path)
	}
	models, err := decodeModels(d)
	if err != nil {
		return nil, fmt.Errorf("snapstore: %s: %w", r.path, err)
	}
	return models, nil
}

// encode writes one snapshot in the version 2 layout (see the package
// doc). Each section is appended to one reused buffer, folded into the
// running CRC and handed to w, so the largest buffer is one model.
func encode(w io.Writer, shard string, snap *engine.Snapshot) error {
	var crc uint32
	flush := func(b []byte) ([]byte, error) {
		crc = crc32.Update(crc, castagnoli, b)
		_, err := w.Write(b)
		return b[:0], err
	}
	b := append(make([]byte, 0, 64<<10), magic...)
	b = ml.AppendU32(b, version)
	b = ml.AppendString(b, shard)
	var err error
	if b, err = appendTime(b, time.Now()); err != nil {
		return err
	}

	b = ml.AppendU64(b, snap.Generation)
	b = ml.AppendU64(b, snap.PoolHash)
	b = ml.AppendU64(b, snap.ConfigHash)
	b = ml.AppendBool(b, snap.PoolChanged)
	b = ml.AppendBool(b, snap.UnifiedReused)
	b = ml.AppendInt(b, snap.Reused)
	b = ml.AppendInt(b, snap.Retrained)
	if b, err = appendTime(b, snap.BuiltAt); err != nil {
		return err
	}
	b = ml.AppendInt(b, int(snap.TrainDuration))

	b = ml.AppendU32(b, uint32(len(snap.Statuses)))
	for _, st := range snap.Statuses {
		b = ml.AppendString(b, st.ID)
		b = ml.AppendInt(b, int(st.Category))
		b = ml.AppendString(b, st.Strategy)
		b = ml.AppendString(b, string(st.Algorithm))
		b = ml.AppendF64(b, st.ValidationMRE)
		b = ml.AppendString(b, st.Donor)
		b = ml.AppendString(b, st.Err)
	}
	b = ml.AppendU32(b, uint32(len(snap.Forecasts)))
	for _, f := range snap.Forecasts {
		b = ml.AppendString(b, f.VehicleID)
		b = ml.AppendInt(b, f.AsOfDay)
		b = ml.AppendF64(b, f.DaysLeft)
		if b, err = appendTime(b, f.DueDate); err != nil {
			return err
		}
		b = ml.AppendInt(b, int(f.Category))
		b = ml.AppendString(b, f.Strategy)
	}
	b = appendStringMap(b, snap.ForecastErrors)
	b = appendStringMap(b, snap.FailedVehicles)
	keyIDs := sortedKeys(snap.ModelKeys)
	b = ml.AppendU32(b, uint32(len(keyIDs)))
	for _, id := range keyIDs {
		b = ml.AppendString(b, id)
		b = ml.AppendU64(b, snap.ModelKeys[id])
	}

	// The model table: distinct models in the order the sorted vehicle
	// IDs first reach them, so the bytes are deterministic.
	modelIDs := make([]string, 0, len(snap.Models))
	for id, m := range snap.Models {
		if m != nil {
			modelIDs = append(modelIDs, id)
		}
	}
	sort.Strings(modelIDs)
	slot := make(map[ml.Regressor]uint32, len(modelIDs))
	var table []ml.Regressor
	for _, id := range modelIDs {
		if m := snap.Models[id]; familyOf(m) == 0 {
			return fmt.Errorf("vehicle %s holds a %T, which the snapshot format cannot store", id, m)
		} else if _, ok := slot[m]; !ok {
			slot[m] = uint32(len(table))
			table = append(table, m)
		}
	}
	if b, err = flush(ml.AppendU32(b, uint32(len(table)))); err != nil {
		return err
	}
	for _, m := range table {
		b = append(b, familyOf(m))
		at := len(b)
		b = ml.AppendU32(b, 0) // length, patched below
		if b, err = m.(codecModel).AppendBinary(b); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
		if b, err = flush(b); err != nil {
			return err
		}
	}

	b = ml.AppendU32(b, uint32(len(modelIDs)))
	for _, id := range modelIDs {
		b = ml.AppendString(b, id)
		b = ml.AppendU32(b, slot[snap.Models[id]])
	}
	if b, err = flush(b); err != nil {
		return err
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(b, crc))
	return err
}

// Minimum encoded sizes, which bound the counts Load accepts: a status
// row, a forecast row, an ID→string pair, a model table entry and an
// index entry, each with empty strings and times.
const (
	minStatusSize   = 4 + 8 + 4 + 4 + 8 + 4 + 4
	minForecastSize = 4 + 8 + 8 + 4 + 8 + 4
	minPairSize     = 4 + 4
	minEntrySize    = 1 + 4
	minIndexSize    = 4 + 4
)

// decodeRows checks a whole file's magic, version, checksum and shard,
// then decodes its rows into a snapshot without models. The returned
// decoder stands at the model table, which decodeModels reads.
func decodeRows(data []byte, shard string) (*engine.Snapshot, *ml.Decoder, error) {
	if len(data) < headSize+crcSize || string(data[:len(magic)]) != magic {
		return nil, nil, errors.New("not a snapshot file")
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != version {
		return nil, nil, fmt.Errorf("%w: this build reads version %d only (version 1 files were gob streams); cold-train instead", errVersion, version)
	}
	body := data[:len(data)-crcSize]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, nil, errors.New("checksum mismatch")
	}
	d := ml.NewDecoder(body[headSize:])
	if got := d.String(); d.Err() == nil && got != shard {
		return nil, nil, fmt.Errorf("belongs to shard %q, not %q", got, shard)
	}
	readTime(d) // spill time: observability only

	snap := &engine.Snapshot{
		Generation:    d.U64(),
		PoolHash:      d.U64(),
		ConfigHash:    d.U64(),
		PoolChanged:   d.Bool(),
		UnifiedReused: d.Bool(),
		Reused:        d.Int(),
		Retrained:     d.Int(),
		BuiltAt:       readTime(d),
		TrainDuration: time.Duration(d.Int()),
	}

	snap.Statuses = make([]core.VehicleStatus, d.Count(minStatusSize))
	snap.StatusByID = make(map[string]core.VehicleStatus, len(snap.Statuses))
	for i := 0; i < len(snap.Statuses) && d.Err() == nil; i++ {
		st := core.VehicleStatus{
			ID:            d.String(),
			Category:      core.Category(d.Int()),
			Strategy:      d.String(),
			Algorithm:     core.Algorithm(d.String()),
			ValidationMRE: d.F64(),
			Donor:         d.String(),
			Err:           d.String(),
		}
		snap.Statuses[i] = st
		snap.StatusByID[st.ID] = st
	}
	if n := d.Count(minForecastSize); n > 0 {
		snap.Forecasts = make([]core.Forecast, n)
	}
	snap.ForecastByID = make(map[string]core.Forecast, len(snap.Forecasts))
	for i := 0; i < len(snap.Forecasts) && d.Err() == nil; i++ {
		f := core.Forecast{
			VehicleID: d.String(),
			AsOfDay:   d.Int(),
			DaysLeft:  d.F64(),
			DueDate:   readTime(d),
			Category:  core.Category(d.Int()),
			Strategy:  d.String(),
		}
		snap.Forecasts[i] = f
		snap.ForecastByID[f.VehicleID] = f
	}
	snap.ForecastErrors = readStringMap(d)
	snap.FailedVehicles = readStringMap(d)
	n := d.Count(minPairSize)
	snap.ModelKeys = make(map[string]uint64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.String()
		snap.ModelKeys[id] = d.U64()
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	return snap, d, nil
}

// decodeModels reads the model table and the per-vehicle index, the
// rest of the file after the rows. Vehicles that index one table entry
// share one decoded model.
func decodeModels(d *ml.Decoder) (map[string]ml.Regressor, error) {
	table := make([]ml.Regressor, d.Count(minEntrySize))
	for i := range table {
		family := d.U8()
		raw := d.Bytes(d.Count(1))
		if err := d.Err(); err != nil {
			return nil, err
		}
		m := newModel(family)
		if m == nil {
			return nil, fmt.Errorf("model %d has unknown family tag %d", i, family)
		}
		if err := m.UnmarshalBinary(raw); err != nil {
			return nil, fmt.Errorf("model %d: %w", i, err)
		}
		table[i] = m
	}
	n := d.Count(minIndexSize)
	models := make(map[string]ml.Regressor, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := d.String()
		if at := d.U32(); int(at) < len(table) {
			models[id] = table[at]
		} else {
			d.Failf("vehicle %s indexes model %d of %d", id, at, len(table))
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return models, nil
}

// appendTime appends a time as its MarshalBinary bytes.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	raw, err := t.MarshalBinary()
	if err != nil {
		return b, err
	}
	b = ml.AppendU32(b, uint32(len(raw)))
	return append(b, raw...), nil
}

// readTime reads a time written by appendTime.
func readTime(d *ml.Decoder) time.Time {
	var t time.Time
	if raw := d.Bytes(d.Count(1)); d.Err() == nil {
		if err := t.UnmarshalBinary(raw); err != nil {
			d.Fail(err)
		}
	}
	return t
}

// appendStringMap appends a map as a count and its pairs in key order.
func appendStringMap(b []byte, m map[string]string) []byte {
	keys := sortedKeys(m)
	b = ml.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = ml.AppendString(b, k)
		b = ml.AppendString(b, m[k])
	}
	return b
}

// readStringMap reads a map written by appendStringMap.
func readStringMap(d *ml.Decoder) map[string]string {
	n := d.Count(minPairSize)
	m := make(map[string]string, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.String()
		m[k] = d.String()
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
