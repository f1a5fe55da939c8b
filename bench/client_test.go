package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/timeseries"
)

func testReports() []report {
	day := time.Date(2019, 10, 2, 0, 0, 0, 0, time.UTC)
	return []report{
		{vehicle: "v01", day: day, tenths: 144005},
		{vehicle: "v01", day: day.AddDate(0, 0, 1), tenths: 36000},
		{vehicle: "bulk-0007", day: day, tenths: 1},
		{vehicle: "v01", day: day.AddDate(0, 0, 2), tenths: 288000},
	}
}

// The driver's own frame encoder must produce the documented wire
// format byte for byte.
func TestBinaryFrameMatchesServerEncoder(t *testing.T) {
	reports := testReports()
	var want []ingest.Report
	for _, r := range reports {
		want = append(want, ingest.Report{VehicleID: r.vehicle, Date: r.day, Seconds: r.seconds()})
	}
	frame, err := ingest.EncodeWireFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeBinaryFrame(nil, reports); !bytes.Equal(got, frame) {
		t.Errorf("frame differs from ingest.EncodeWireFrame:\n got %x\nwant %x", got, frame)
	}
}

// A real server must accept the driver's frames and JSON bodies report
// for report, and store exactly the values sent.
func TestDoorsAcceptDriverEncodings(t *testing.T) {
	for _, door := range []string{doorBinary, doorJSON} {
		store := ingest.New(timeseries.DefaultAllowance)
		eng, err := engine.New(engine.Config{Predictor: core.DefaultPredictorConfig(), Source: store.Fleet})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewWithOptions(eng, serve.Options{Ingest: store, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		reports := testReports()
		var buf []byte
		if err := postReports(ts.Client(), ts.URL, door, &buf, reports); err != nil {
			t.Errorf("%s door: %v", door, err)
		}
		ts.Close()
		for _, r := range reports {
			start, u, ok := store.RawSeries(r.vehicle)
			if !ok {
				t.Fatalf("%s door: vehicle %s was not stored", door, r.vehicle)
			}
			if got := u[epochDay(r.day)-epochDay(start)]; got != r.seconds() {
				t.Errorf("%s door: %s on %s stored %v, sent %v", door, r.vehicle, r.day.Format(dayLayout), got, r.seconds())
			}
		}
	}
}

func TestAsOfDay(t *testing.T) {
	body := []byte(`{"vehicle_id":"v01","days_left":27.7705,"due_date":"2019-10-29","category":"old","strategy":"per-vehicle"}`)
	got, err := asOfDay(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := epochDay(time.Date(2019, 10, 1, 0, 0, 0, 0, time.UTC)); got != want {
		t.Errorf("as of day %d, want %d (2019-10-01)", got, want)
	}
	if _, err := asOfDay([]byte(`{"error":"no snapshot"}`)); err == nil {
		t.Error("a body without a due date must not parse")
	}
}
