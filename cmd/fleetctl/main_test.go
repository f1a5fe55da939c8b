package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

// TestSubcommands builds fleetctl and runs every subcommand: the CSV
// ones on a small generated fleet with corrupted days, ingest and
// metrics against a real server over a store seeded from the same
// fleet. Each run must exit 0 and print its header.
func TestSubcommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fleetctl binary")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "fleetctl")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 6
	cfg.Days = 900
	cfg.Corrupt = true // so status reports repairs and predict trains on cleaned series
	fleet, err := telematics.GenerateFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := fleet.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "fleet.csv")
	if err := os.WriteFile(data, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("fleetctl %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return stdout.String()
	}
	mustStart := func(out, header string, args ...string) {
		t.Helper()
		if !strings.HasPrefix(out, header) {
			t.Fatalf("fleetctl %s printed %q, want it to start with %q", strings.Join(args, " "), out, header)
		}
	}

	out := run("-data", data, "status")
	mustStart(out, "veh    category       days", "status")
	if n := strings.Count(out, "\n"); n != 1+cfg.Vehicles {
		t.Fatalf("status printed %d lines, want a header and %d vehicles:\n%s", n, cfg.Vehicles, out)
	}
	repaired := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
		f := strings.Fields(line)
		if n, err := strconv.Atoi(f[len(f)-1]); err == nil {
			repaired += n
		}
	}
	if repaired == 0 {
		t.Fatalf("status shows no repairs on a corrupted fleet:\n%s", out)
	}
	mustStart(run("-data", data, "-vehicle", "v01", "cycles"), "vehicle v01 (", "cycles", "-vehicle", "v01")

	const predictHeader = "veh    category   strategy     alg    days-left"
	serial := run("-data", data, "-workers", "1", "predict")
	mustStart(serial, predictHeader, "predict", "-workers", "1")
	sharded := run("-data", data, "-shards", "2", "predict")
	if sharded != serial {
		t.Fatalf("predict -shards 2 differs from -workers 1:\n%s\nwant:\n%s", sharded, serial)
	}

	store := ingest.New(timeseries.DefaultAllowance)
	if _, err := store.SeedFromFleet(fleet); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Predictor: core.DefaultPredictorConfig(), Workers: 1, Source: store.Fleet})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RetrainFromSource(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewWithOptions(eng, serve.Options{Ingest: store})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/fleet/forecast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out = run("ingest", "-url", ts.URL)
	mustStart(out, "vehicles      6\n", "ingest")
	if !strings.Contains(out, "durability    in-memory (no WAL)") {
		t.Fatalf("ingest printed no durability line:\n%s", out)
	}
	out = run("metrics", "-url", ts.URL)
	mustStart(out, "=== this process ===\nready         1 (generation 1, 6 vehicles", "metrics")
	if !strings.Contains(out, "routes:\n") {
		t.Fatalf("metrics printed no route latencies:\n%s", out)
	}
}
