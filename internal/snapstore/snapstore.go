// Package snapstore persists engine snapshots so a rebooted
// fleetserver (or one shard of a cluster) serves its last trained
// generation immediately instead of cold-training, and — because a
// snapshot carries its per-vehicle model keys, donor-pool key and models —
// retrains *incrementally* from the persisted state: only vehicles
// whose telemetry since the spill moved a model key (completed a
// maintenance cycle, flipped a donor, ...) train again.
//
// One snapshot is one file, <dir>/<shard>.snap, written atomically
// (temp file + rename) so a crash mid-spill never corrupts the
// restorable generation; each successful spill replaces the previous
// one, so the directory holds exactly the latest generation per shard.
//
// A successful Save is also the durability gate for the telemetry WAL:
// the fleetserver's snapshot hook checkpoints the ingest store and
// compacts its journal only after the generation is on disk (see
// ingest.CheckpointAndCompact), so a WAL segment is never dropped
// before a persisted generation's checkpoint covers it.
// The format is a magic header, a format version, and a gob stream.
// Model types serialize through their GobEncode/GobDecode mirrors (see
// the gob.go file of each ml sub-package), which makes restored models
// predict bit-identically to the ones that were spilled.
package snapstore

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/ml/linreg"
	"repro/internal/ml/svr"
	"repro/internal/ml/tree"
)

// The ml.Regressor implementations a snapshot's model map can hold;
// gob needs the concrete types registered to encode interface values.
// core.Baseline is included for fleets whose candidates keep BL in
// play.
func init() {
	gob.Register(&core.Baseline{})
	gob.Register(&linreg.Model{})
	gob.Register(&svr.Model{})
	gob.Register(&tree.Model{})
	gob.Register(&forest.Model{})
	gob.Register(&gbm.Model{})
}

// magic identifies a snapstore file; version gates format evolution.
const (
	magic   = "reprosnap\n"
	version = 1
)

// header precedes the snapshot payload in every file.
type header struct {
	Version int
	// Shard echoes the shard the snapshot belongs to; Load rejects a
	// file whose embedded shard differs from the requested one (e.g. a
	// copied-around file).
	Shard string
	// SavedAt is when the spill happened (observability only).
	SavedAt time.Time
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
// which is fsynced and renamed over the previous spill.
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

	w := bufio.NewWriter(tmp)
	writeErr := func() error {
		if _, err := w.WriteString(magic); err != nil {
			return err
		}
		enc := gob.NewEncoder(w)
		if err := enc.Encode(header{Version: version, Shard: shard, SavedAt: time.Now()}); err != nil {
			return err
		}
		if err := enc.Encode(snap); err != nil {
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
	return nil
}

// Load reads a shard's persisted snapshot. A missing file returns an
// error satisfying errors.Is(err, os.ErrNotExist) — the "nothing to
// restore, cold-train instead" signal.
func (s *Store) Load(shard string) (*engine.Snapshot, error) {
	src, err := s.path(shard)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	r := bufio.NewReader(f)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil || string(got) != magic {
		return nil, fmt.Errorf("snapstore: %s is not a snapshot file", src)
	}
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("snapstore: reading %s header: %w", src, err)
	}
	if h.Version != version {
		return nil, fmt.Errorf("snapstore: %s has format version %d, this build reads %d", src, h.Version, version)
	}
	if h.Shard != shard {
		return nil, fmt.Errorf("snapstore: %s belongs to shard %q, not %q", src, h.Shard, shard)
	}
	var snap engine.Snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("snapstore: reading %s: %w", src, err)
	}
	return &snap, nil
}
