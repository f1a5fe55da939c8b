package repro

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// TestDeployedPathGolden pins what the deployed path serves on the
// benchmark's 24-vehicle 18/3/3 fleet: per vehicle the category,
// strategy, winning family, donor, selection score and forecast. A
// change that moves any of them — a different model-selection split,
// a learner change — shows up as a reviewed golden diff instead of
// silently. Regenerate with `go test -run TestDeployedPathGolden -update .`.
func TestDeployedPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the 24-vehicle fleet")
	}
	e := fleet24(t)
	cfg := core.DefaultPredictorConfig()
	cfg.Seed = e.Scale.Seed
	fp, err := core.NewFleetPredictor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range mixedFleet24(t) {
		if err := fp.AddVehicle(v.Series, v.Start); err != nil {
			t.Fatal(err)
		}
	}
	statuses, err := fp.Train()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# vehicle category strategy family donor validation_mre days_left\n")
	for _, st := range statuses {
		f, err := fp.Predict(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		donor := st.Donor
		if donor == "" {
			donor = "-"
		}
		fmt.Fprintf(&b, "%s %s %s %s %s %.6g %.6g\n", st.ID, st.Category, st.Strategy, st.Algorithm, donor, st.ValidationMRE, f.DaysLeft)
	}

	path := filepath.Join("testdata", "deployed_fleet24.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("deployed path differs from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
