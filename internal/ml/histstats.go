package ml

import "sync/atomic"

// Package-level work accounting for the histogram split engine. The
// GBM trainer tallies its fill/subtract/sweep work into a local
// HistStats and merges it here once per fit (a handful of atomic
// adds), so the engine layer can expose where histogram time goes —
// rows scanned into direct fills vs. cells derived by parent−sibling
// subtraction — without any per-node synchronization.
var (
	binBuilds atomic.Uint64
	binReuses atomic.Uint64

	histFillRows      atomic.Uint64
	histFillCells     atomic.Uint64
	histSubtractCells atomic.Uint64
	histSweepCells    atomic.Uint64
	histDirectNodes   atomic.Uint64
	histDerivedNodes  atomic.Uint64
	histFillNanos     atomic.Uint64
	histSubtractNanos atomic.Uint64
)

// HistStats is one fit's histogram work tally.
type HistStats struct {
	// FillRows counts (row × feature) cell updates performed by direct
	// histogram fills; FillCells counts histogram cells zero-initialized
	// or written by those fills' envelopes.
	FillRows  uint64
	FillCells uint64
	// SubtractCells counts cells derived as parent − sibling instead of
	// being refilled from rows.
	SubtractCells uint64
	// SweepCells counts cells visited by split-gain sweeps.
	SweepCells uint64
	// DirectNodes/DerivedNodes count nodes whose histogram was filled
	// from rows vs. derived by subtraction.
	DirectNodes  uint64
	DerivedNodes uint64
	// FillNanos/SubtractNanos sample wall time spent in fills and
	// subtractions at large nodes (≥ 2048 rows); small-node work is
	// accounted in the unit counters only, so the clock is read where
	// it is negligible relative to the work measured.
	FillNanos     uint64
	SubtractNanos uint64
}

// AddHistStats merges one fit's tally into the package counters.
func AddHistStats(s *HistStats) {
	if s.FillRows != 0 {
		histFillRows.Add(s.FillRows)
	}
	if s.FillCells != 0 {
		histFillCells.Add(s.FillCells)
	}
	if s.SubtractCells != 0 {
		histSubtractCells.Add(s.SubtractCells)
	}
	if s.SweepCells != 0 {
		histSweepCells.Add(s.SweepCells)
	}
	if s.DirectNodes != 0 {
		histDirectNodes.Add(s.DirectNodes)
	}
	if s.DerivedNodes != 0 {
		histDerivedNodes.Add(s.DerivedNodes)
	}
	if s.FillNanos != 0 {
		histFillNanos.Add(s.FillNanos)
	}
	if s.SubtractNanos != 0 {
		histSubtractNanos.Add(s.SubtractNanos)
	}
}

// HistStatsSnapshot returns the process-wide histogram work counters
// accumulated since start.
func HistStatsSnapshot() HistStats {
	return HistStats{
		FillRows:      histFillRows.Load(),
		FillCells:     histFillCells.Load(),
		SubtractCells: histSubtractCells.Load(),
		SweepCells:    histSweepCells.Load(),
		DirectNodes:   histDirectNodes.Load(),
		DerivedNodes:  histDerivedNodes.Load(),
		FillNanos:     histFillNanos.Load(),
		SubtractNanos: histSubtractNanos.Load(),
	}
}

// BinBuilds returns how many quantile binnings have been computed
// process-wide; BinReuses how many Bin calls were served from a
// matrix's cache. Their ratio is the payoff of sharing one binned
// layout across trees, boosting rounds and grid configurations.
func BinBuilds() uint64 { return binBuilds.Load() }
func BinReuses() uint64 { return binReuses.Load() }
