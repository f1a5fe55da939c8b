package core

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

// AugmentTimeShift implements the §4 data-augmentation trick: "we can
// shift the time reference, i.e., changing the first starting day t = 0,
// without introducing errors. We randomly re-sampled multiple times the
// time reference starting from different time points within the training
// data and build the utilization series."
//
// It re-derives the cycle structure (and hence L and D) from `shifts`
// random suffixes of the training region [from, to) of the utilization
// series and appends the resulting records. Shifting the origin moves
// every maintenance boundary, so the augmented records genuinely differ
// from the originals while remaining consistent with the usage process.
func AugmentTimeShift(vs *timeseries.VehicleSeries, from, to int, cfg FeatureConfig, shifts int, rnd *rng.Source) ([]Record, error) {
	if shifts < 0 {
		return nil, fmt.Errorf("core: negative shift count %d", shifts)
	}
	if from < 0 || to > len(vs.U) || from >= to {
		return nil, fmt.Errorf("core: augmentation range [%d,%d) outside series of %d days", from, to, len(vs.U))
	}
	region := vs.U.Slice(from, to)
	// A shifted series shorter than ~one cycle plus the window produces
	// no usable records; require at least window+2 days.
	minLen := cfg.Window + 2
	if len(region) <= minLen {
		return nil, fmt.Errorf("core: augmentation region of %d days too short for window %d", len(region), cfg.Window)
	}
	var out []Record
	for k := 0; k < shifts; k++ {
		s := 1 + rnd.Intn(len(region)-minLen)
		shifted, err := timeseries.DeriveOwned(vs.ID, region[s:].Clone(), vs.Allowance)
		if err != nil {
			return nil, fmt.Errorf("core: deriving shifted series (s=%d): %w", s, err)
		}
		recs, err := BuildRecords(shifted, cfg)
		if err != nil {
			return nil, err
		}
		// Re-anchor day indices into the original frame for traceability.
		for i := range recs {
			recs[i].Day += from + s
		}
		out = append(out, recs...)
	}
	return out, nil
}
