// Coldstart: the §4.4 workflow for vehicles without a completed
// maintenance cycle. A fleet of old vehicles donates first-cycle data;
// one held-out vehicle plays the semi-new newcomer. The example compares
// the paper's three strategies — per-vehicle baseline, Unified model,
// and Similarity-based model — on the newcomer's first cycle.
//
// Run with: go run ./examples/coldstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

func main() {
	log.SetFlags(0)

	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 12
	cfg.Days = 1300
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var series []*timeseries.VehicleSeries
	for _, v := range fleet.Vehicles {
		prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, cfg.Allowance)
		if err != nil {
			log.Fatal(err)
		}
		if c, ok := prep.Series.FirstCycle(); ok && c.Complete {
			series = append(series, prep.Series)
		}
	}
	if len(series) < 3 {
		log.Fatal("need at least 3 vehicles with a complete first cycle")
	}

	// The last vehicle plays the semi-new newcomer; the rest donate
	// their first cycles as training data.
	newcomer := series[len(series)-1]
	donors := series[:len(series)-1]
	fmt.Printf("newcomer: %s — evaluating on the second half of its first cycle\n", newcomer.ID)
	fmt.Printf("donors:   %d old vehicles (first cycles only)\n\n", len(donors))

	csCfg := core.NewColdStartConfig()
	d := core.DefaultDTilde()

	// Strategy 1: baseline from the newcomer's own first-half average.
	if rep, err := core.EvaluateSemiNewBaseline(newcomer, csCfg); err != nil {
		log.Printf("baseline: %v", err)
	} else {
		fmt.Printf("%-28s EMRE(1..29) = %5.1f days\n", "baseline (own average)", rep.MRE(d))
	}

	// Strategy 2: one unified model over every donor's first cycle.
	for _, alg := range core.TrainedAlgorithms() {
		model, err := core.TrainUnified(donors, alg, csCfg)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.EvaluateSemiNew(model, string(alg)+"_Uni", newcomer, csCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s EMRE(1..29) = %5.1f days\n", "unified "+string(alg), rep.MRE(d))
	}

	// Strategy 3: train only on the most similar donor.
	for _, alg := range core.TrainedAlgorithms() {
		model, donor, err := core.TrainSimilarity(newcomer, donors, alg, csCfg, timeseries.AvgDistance)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := core.EvaluateSemiNew(model, string(alg)+"_Sim", newcomer, csCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s EMRE(1..29) = %5.1f days (donor %s)\n", "similarity "+string(alg), rep.MRE(d), donor)
	}

	// For a brand-new vehicle (first half of the first cycle) only the
	// unified model applies; the paper compares by global error there.
	fmt.Println()
	model, err := core.TrainUnified(donors, core.XGB, csCfg)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.EvaluateNew(model, "XGB_Uni", newcomer, csCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new-phase (first half) XGB_Uni EGlobal = %.1f days over %d days\n",
		rep.Global(), len(rep.Predictions))
}
