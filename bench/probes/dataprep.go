package main

import (
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/telematics"
)

// loadFleet reads the seed CSV the way fleetserver does and runs every
// vehicle through the §3 preparation pipeline, timing it.
func loadFleet(path string, m metrics) (*probeFleet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fleet, err := telematics.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	pf := &probeFleet{raw: fleet.Vehicles}
	t0 := time.Now()
	for _, v := range fleet.Vehicles {
		ev, err := prepare(v)
		if err != nil {
			return nil, err
		}
		pf.prepared = append(pf.prepared, ev)
	}
	m["dataprep.prepare_us_per_vehicle"] = us(time.Since(t0)) / float64(len(fleet.Vehicles))
	for i, v := range pf.prepared {
		switch core.Categorize(v.Series) {
		case core.Old:
			pf.old = append(pf.old, i)
		case core.SemiNew:
			pf.semiNew = append(pf.semiNew, i)
		default:
			pf.fresh = append(pf.fresh, i)
		}
	}
	return pf, nil
}

func prepare(v telematics.VehicleData) (engine.Vehicle, error) {
	prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, allowance)
	if err != nil {
		return engine.Vehicle{}, err
	}
	return engine.Vehicle{Series: prep.Series, Start: prep.Start}, nil
}

// withExtraDay returns vehicle i re-prepared with one more day of
// usage, the way a daily report changes it.
func (pf *probeFleet) withExtraDay(i int, seconds float64) (engine.Vehicle, error) {
	v := pf.raw[i]
	v.RawU = append(append(v.RawU[:0:0], v.RawU...), seconds)
	pf.raw[i] = v
	return prepare(v)
}
