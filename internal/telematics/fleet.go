// Package telematics generates the synthetic fleet the system is
// exercised on, and reads and writes it as CSV. Each vehicle's raw
// daily utilization series U_v(t) is what the paper's telematics
// backend delivers: in the deployed system the on-vehicle collectors'
// daily totals reach the ingest store through its telemetry doors, and
// a CSV export seeds it.
//
// The real system (Tierra S.p.A. telematics) is proprietary and its data
// is unavailable, so the generator reproduces the statistical properties
// the paper reports — heterogeneous usage levels, weekly and annual
// seasonality, multi-week idle periods, sudden site relocations, and the
// ~30 % lower utilization during the first maintenance cycle — so that
// every downstream component is exercised on data with the same shape as
// the original.
package telematics

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/timeseries"
)

// FleetConfig parameterizes the synthetic-fleet generator. The defaults
// mirror the paper's dataset: 24 heterogeneous vehicles observed from
// January 2015 to September 2019 with T_v = 2 000 000 s.
type FleetConfig struct {
	// Vehicles is the fleet size (paper: 24).
	Vehicles int
	// Start is the first acquisition day (paper: January 2015).
	Start time.Time
	// Days is the acquisition horizon in days (paper: ~4 years ≈ 1730).
	Days int
	// Allowance is T_v in seconds (paper: 2 000 000).
	Allowance float64
	// Seed drives all randomness; identical seeds give identical fleets.
	Seed uint64
	// Corrupt, when true, injects the data-quality artifacts (missing
	// values, inconsistent readings) that the preparation pipeline of
	// §3 exists to clean up.
	Corrupt bool
	// CorruptionRate is the per-day probability of an artifact when
	// Corrupt is set.
	CorruptionRate float64
}

// DefaultFleetConfig returns the paper-matching configuration.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Vehicles:       24,
		Start:          time.Date(2015, time.January, 1, 0, 0, 0, 0, time.UTC),
		Days:           1735, // Jan 2015 – Sep 2019
		Allowance:      timeseries.DefaultAllowance,
		Seed:           42,
		Corrupt:        false,
		CorruptionRate: 0.01,
	}
}

// Validate reports the first configuration error found.
func (c *FleetConfig) Validate() error {
	switch {
	case c.Vehicles <= 0:
		return fmt.Errorf("telematics: fleet size %d must be positive", c.Vehicles)
	case c.Days <= 0:
		return fmt.Errorf("telematics: horizon %d days must be positive", c.Days)
	case c.Allowance <= 0:
		return fmt.Errorf("telematics: allowance must be positive")
	case c.Corrupt && (c.CorruptionRate < 0 || c.CorruptionRate > 1):
		return fmt.Errorf("telematics: corruption rate %.3f outside [0,1]", c.CorruptionRate)
	}
	return nil
}

// VehicleData is the generated history of one vehicle: its profile, the
// (possibly corrupted) raw daily utilization, and the acquisition start.
type VehicleData struct {
	Profile Profile
	Start   time.Time
	// RawU is the daily utilization as collected, before cleaning. When
	// corruption is enabled it may contain NaNs (missing reports) and
	// physically impossible values.
	RawU timeseries.Series
}

// Fleet is a generated synthetic fleet.
type Fleet struct {
	Config   FleetConfig
	Vehicles []VehicleData
}

// classPrior bounds the per-class parameter draws. The spans are chosen
// so the generated fleet reproduces the paper's documented facts:
// typical daily utilization up to ~50 000 s with many vehicles in the
// 10 000–30 000 s band (Figure 1), complete cycles between ~65 and ~250
// days (Figure 2: 65–105-day cycles for a heavily used vehicle, a longer
// first cycle), and multi-week idle spells for some vehicles.
type classPrior struct {
	base      [2]float64 // BaseDailySeconds range
	weekend   [2]float64 // Saturday factor range (Sunday = half of it)
	seasonal  [2]float64
	noise     [2]float64
	zeroDay   [2]float64
	idleEnter [2]float64
	idleMean  [2]float64
	reloc     [2]float64
	site      [2]float64
}

// The priors encode the mechanism behind the paper's Table-1 shape: the
// *active-day* work rate of a vehicle is fairly stable (narrow site
// ranges, low noise), so the near-deadline L→D relation is learnable;
// what varies wildly — and wrecks the calendar-average baseline — is the
// mix of hard weekend shutdowns, multi-week between-job idle spells and
// the derated first cycle. Idle weight differs by class, giving the
// heterogeneous fleet of Figure 1 (busy excavators with ~100-day cycles
// next to cranes that sit unused for weeks).
var priors = map[VehicleClass]classPrior{
	Excavator: {base: [2]float64{26000, 38000}, weekend: [2]float64{0.0, 0.3}, seasonal: [2]float64{0.10, 0.22}, noise: [2]float64{0.08, 0.14}, zeroDay: [2]float64{0.02, 0.06}, idleEnter: [2]float64{0.018, 0.035}, idleMean: [2]float64{6, 14}, reloc: [2]float64{0.003, 0.008}, site: [2]float64{0.60, 1.40}},
	Crane:     {base: [2]float64{18000, 28000}, weekend: [2]float64{0.0, 0.2}, seasonal: [2]float64{0.15, 0.30}, noise: [2]float64{0.10, 0.18}, zeroDay: [2]float64{0.03, 0.08}, idleEnter: [2]float64{0.028, 0.050}, idleMean: [2]float64{14, 30}, reloc: [2]float64{0.004, 0.010}, site: [2]float64{0.55, 1.45}},
	Loader:    {base: [2]float64{20000, 32000}, weekend: [2]float64{0.0, 0.4}, seasonal: [2]float64{0.10, 0.20}, noise: [2]float64{0.08, 0.14}, zeroDay: [2]float64{0.02, 0.06}, idleEnter: [2]float64{0.020, 0.038}, idleMean: [2]float64{7, 16}, reloc: [2]float64{0.003, 0.008}, site: [2]float64{0.60, 1.40}},
	Bulldozer: {base: [2]float64{22000, 34000}, weekend: [2]float64{0.0, 0.3}, seasonal: [2]float64{0.12, 0.25}, noise: [2]float64{0.09, 0.16}, zeroDay: [2]float64{0.03, 0.07}, idleEnter: [2]float64{0.022, 0.042}, idleMean: [2]float64{9, 20}, reloc: [2]float64{0.004, 0.010}, site: [2]float64{0.55, 1.45}},
	Grader:    {base: [2]float64{14000, 24000}, weekend: [2]float64{0.0, 0.2}, seasonal: [2]float64{0.18, 0.32}, noise: [2]float64{0.10, 0.20}, zeroDay: [2]float64{0.04, 0.10}, idleEnter: [2]float64{0.032, 0.055}, idleMean: [2]float64{16, 35}, reloc: [2]float64{0.004, 0.010}, site: [2]float64{0.50, 1.50}},
	DumpTruck: {base: [2]float64{24000, 36000}, weekend: [2]float64{0.1, 0.5}, seasonal: [2]float64{0.10, 0.18}, noise: [2]float64{0.08, 0.13}, zeroDay: [2]float64{0.02, 0.06}, idleEnter: [2]float64{0.016, 0.032}, idleMean: [2]float64{6, 13}, reloc: [2]float64{0.003, 0.008}, site: [2]float64{0.60, 1.40}},
}

var modelNames = map[VehicleClass][]string{
	Excavator: {"EXC-210", "EXC-350", "EXC-490"},
	Crane:     {"CRN-45", "CRN-80"},
	Loader:    {"LDR-120", "LDR-150", "LDR-220"},
	Bulldozer: {"BLD-650", "BLD-850"},
	Grader:    {"GRD-14", "GRD-16"},
	DumpTruck: {"DMP-300", "DMP-400"},
}

// GenerateFleet builds a heterogeneous fleet per the config. Profiles are
// drawn class-round-robin so even small fleets cover several classes.
func GenerateFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	classes := AllClasses()
	fleet := &Fleet{Config: cfg}
	for i := 0; i < cfg.Vehicles; i++ {
		vrnd := root.Split()
		class := classes[i%len(classes)]
		p := drawProfile(fmt.Sprintf("v%02d", i+1), class, cfg.Allowance, vrnd)
		u, err := p.GenerateUsage(cfg.Start, cfg.Days, vrnd)
		if err != nil {
			return nil, fmt.Errorf("telematics: generating vehicle %s: %w", p.ID, err)
		}
		if cfg.Corrupt {
			corrupt(u, cfg.CorruptionRate, vrnd)
		}
		fleet.Vehicles = append(fleet.Vehicles, VehicleData{Profile: p, Start: cfg.Start, RawU: u})
	}
	return fleet, nil
}

func drawProfile(id string, class VehicleClass, allowance float64, rnd *rng.Source) Profile {
	pr := priors[class]
	names := modelNames[class]
	sat := rnd.Range(pr.weekend[0], pr.weekend[1])
	var wf [7]float64
	for d := 0; d < 5; d++ {
		wf[d] = rnd.Range(0.9, 1.1)
	}
	wf[5] = sat
	wf[6] = sat / 2
	return Profile{
		ID:               id,
		Model:            names[rnd.Intn(len(names))],
		Class:            class,
		BaseDailySeconds: rnd.Range(pr.base[0], pr.base[1]),
		WeekdayFactor:    wf,
		SeasonalAmp:      rnd.Range(pr.seasonal[0], pr.seasonal[1]),
		SeasonalPhase:    rnd.Range(-0.6, 0.6),
		NoiseSigma:       rnd.Range(pr.noise[0], pr.noise[1]),
		ZeroDayProb:      rnd.Range(pr.zeroDay[0], pr.zeroDay[1]),
		IdleEnterProb:    rnd.Range(pr.idleEnter[0], pr.idleEnter[1]),
		IdleMeanDays:     rnd.Range(pr.idleMean[0], pr.idleMean[1]),
		IdleSeasonalAmp:  rnd.Range(0.6, 0.95),
		RelocationProb:   rnd.Range(pr.reloc[0], pr.reloc[1]),
		SiteFactorRange:  [2]float64{rnd.Range(pr.site[0], 0.95), rnd.Range(1.05, pr.site[1])},
		// Ramp start chosen so the first-cycle mean lands ≈ 30 % below
		// the steady-state mean, as the paper reports (§4.4).
		FirstCycleFactor:    rnd.Range(0.38, 0.58),
		InitialIdleMeanDays: rnd.Range(3, 15),
		Allowance:           allowance,
	}
}

// corrupt injects the artifacts §3's cleaning step must handle: missing
// reports (NaN), duplicated-transmission spikes (> 86400 s/day), and
// sensor glitches (negative values).
func corrupt(u timeseries.Series, rate float64, rnd *rng.Source) {
	for t := range u {
		if !rnd.Bernoulli(rate) {
			continue
		}
		switch rnd.Intn(3) {
		case 0:
			u[t] = nan()
		case 1:
			u[t] = 86400 + rnd.Range(1, 50000)
		case 2:
			u[t] = -rnd.Range(1, 20000)
		}
	}
}

func nan() float64 {
	var z float64
	return z / z
}
