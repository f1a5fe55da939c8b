// Command fleetgen generates a synthetic telematics fleet dataset and
// either writes it as CSV (vehicle,model,class,date,seconds) or replays
// it as live telemetry against a running fleetserver. The dataset is the
// documented substitute for the paper's proprietary Tierra S.p.A. data
// (see internal/telematics).
//
// With -post URL the generated days are sliced into chronological
// batches and POSTed to URL/telemetry as binary wire frames (see
// internal/ingest's wire format), so the full live loop —
// collector batches → ingest store → incremental retrain → forecasts —
// is demoable end-to-end:
//
//	fleetgen -o fleet.csv                                # CSV dataset
//	fleetgen -vehicles 24 -post http://localhost:8080    # live replay
//
// Usage:
//
//	fleetgen [-vehicles 24] [-days 1735] [-seed 42] [-corrupt]
//	         [-o fleet.csv | -post http://host:8080 [-batch-days 90]
//	          [-auth-token SECRET]]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"time"

	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/telematics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetgen: ")

	var (
		vehicles  = flag.Int("vehicles", 24, "fleet size")
		days      = flag.Int("days", 1735, "acquisition horizon in days")
		seed      = flag.Uint64("seed", 42, "master random seed")
		corrupt   = flag.Bool("corrupt", false, "inject missing/inconsistent values for the cleaning step")
		out       = flag.String("o", "-", "output file ('-' = stdout)")
		post      = flag.String("post", "", "replay the fleet as POST /telemetry batches against this fleetserver base URL instead of writing CSV")
		batchDays = flag.Int("batch-days", 90, "with -post: days of fleet-wide telemetry per batch")
		authToken = flag.String("auth-token", "", "with -post: bearer token for a guarded /telemetry endpoint")
	)
	flag.Parse()

	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = *vehicles
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.Corrupt = *corrupt

	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *post != "" {
		if err := replay(fleet, *post, *batchDays, *authToken); err != nil {
			log.Fatal(err)
		}
		return
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := fleet.WriteCSV(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fleetgen: wrote %d vehicles x %d days\n", *vehicles, *days)
}

// replay streams the generated fleet chronologically: each batch holds
// batchDays days of every vehicle's telemetry, mimicking periodic
// collector uploads. NaN days (simulated missing reports) are skipped —
// a collector that never reported a day sends nothing, it does not
// send NaN over the wire.
func replay(fleet *telematics.Fleet, baseURL string, batchDays int, authToken string) error {
	if batchDays <= 0 {
		return fmt.Errorf("batch-days must be positive, got %d", batchDays)
	}
	url := baseURL + "/telemetry"
	client := &http.Client{Timeout: 5 * time.Minute}

	horizon := 0
	for _, v := range fleet.Vehicles {
		if len(v.RawU) > horizon {
			horizon = len(v.RawU)
		}
	}

	var totalAccepted, totalRejected, totalChanged, batches int
	retrains := 0
	for from := 0; from < horizon; from += batchDays {
		to := from + batchDays
		if to > horizon {
			to = horizon
		}
		var reports []ingest.Report
		for _, v := range fleet.Vehicles {
			for t := from; t < to && t < len(v.RawU); t++ {
				if math.IsNaN(v.RawU[t]) {
					continue
				}
				reports = append(reports, ingest.Report{
					VehicleID: v.Profile.ID,
					Date:      v.Start.AddDate(0, 0, t),
					Seconds:   v.RawU[t],
				})
			}
		}
		if len(reports) == 0 {
			continue
		}
		// Stay under the server's per-batch report cap even for fleets
		// where batchDays x vehicles is huge: split into sub-batches.
		const maxReportsPerPost = 400_000
		for off := 0; off < len(reports); off += maxReportsPerPost {
			end := off + maxReportsPerPost
			if end > len(reports) {
				end = len(reports)
			}
			res, err := postBatch(client, url, authToken, reports[off:end])
			if err != nil {
				return fmt.Errorf("batch days [%d,%d): %w", from, to, err)
			}
			batches++
			totalAccepted += res.Accepted
			totalRejected += res.Rejected
			totalChanged += res.Changed
			if res.RetrainStarted {
				retrains++
			}
			log.Printf("days [%4d,%4d): %5d reports, %d rejected, retrain_started=%v",
				from, to, end-off, res.Rejected, res.RetrainStarted)
		}
	}
	log.Printf("replayed %d batches: %d accepted (%d changed content), %d rejected, %d retrains kicked",
		batches, totalAccepted, totalChanged, totalRejected, retrains)
	return nil
}

// postBatch sends reports as one binary wire frame and decodes the
// server's acknowledgement.
func postBatch(client *http.Client, url, authToken string, reports []ingest.Report) (serve.TelemetryResponse, error) {
	body, err := ingest.EncodeWireFrame(reports)
	if err != nil {
		return serve.TelemetryResponse{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return serve.TelemetryResponse{}, err
	}
	req.Header.Set("Content-Type", ingest.ContentTypeBinary)
	if authToken != "" {
		req.Header.Set("Authorization", "Bearer "+authToken)
	}
	resp, err := client.Do(req)
	if err != nil {
		return serve.TelemetryResponse{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return serve.TelemetryResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.TelemetryResponse{}, fmt.Errorf("server answered %s: %s", resp.Status, bytes.TrimSpace(payload))
	}
	var out serve.TelemetryResponse
	if err := json.Unmarshal(payload, &out); err != nil {
		return serve.TelemetryResponse{}, fmt.Errorf("decoding server response: %w", err)
	}
	return out, nil
}
