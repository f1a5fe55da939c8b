// Quickstart: simulate a small fleet, run the preparation pipeline,
// train the category-appropriate predictor per vehicle, and print the
// forecast next-maintenance date for every vehicle.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/telematics"
)

func main() {
	log.SetFlags(0)

	// 1. Acquire data. In production the vehicles' daily reports reach
	// the ingest store; here the fleet generator stands in for them.
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 6
	cfg.Days = 1000
	cfg.Corrupt = true // exercise the cleaning step
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Prepare: clean, derive the U/C/L/D series, enrich.
	predictor, err := core.NewFleetPredictor(core.DefaultPredictorConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range fleet.Vehicles {
		prep, err := dataprep.Prepare(v.Profile.ID, v.Start, v.RawU, cfg.Allowance)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%s): %d days, %d values repaired, category %s\n",
			prep.ID, v.Profile.Class, len(prep.Series.U), prep.Clean.Total(), core.Categorize(prep.Series))
		if err := predictor.AddVehicle(prep.Series, prep.Start); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Train one model per vehicle (per-vehicle for old vehicles,
	// similarity/unified for semi-new and new ones).
	statuses, err := predictor.Train()
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range statuses {
		fmt.Printf("trained %s: strategy=%s algorithm=%s\n", st.ID, st.Strategy, st.Algorithm)
	}

	// 4. Forecast the next maintenance for the whole fleet.
	forecasts, err := predictor.PredictAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnext-maintenance forecast:")
	for _, fc := range forecasts {
		fmt.Printf("  %s: %.0f days left -> due %s\n", fc.VehicleID, fc.DaysLeft, fc.DueDate.Format("2006-01-02"))
	}
}
