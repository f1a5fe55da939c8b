package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// timingText matches the wall-clock parts of repro's output: the
// per-experiment "## (… finished in …)" lines and the fleet header's
// build time.
var timingText = regexp.MustCompile(`(?m)^## \(\S+ finished in [0-9.]+s\)\n\n| \([0-9.]+s\)$`)

// TestPaperGolden pins the paper's tables and figures at a small fleet
// (8 vehicles, 1100 days): Table 1, the Fig 4 window sweep, Table 2's
// best windows, Fig 5, Table 3's cold-start errors and the ablations
// (whose similarity-measure rows are the DTW donor path). Any learner or
// pipeline change that moves a number shows up as a golden diff.
// Regenerate with `go test ./cmd/repro -run TestPaperGolden -update`.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the small paper fleet six times")
	}
	for _, exp := range []string{"table1", "table2", "fig4", "fig5", "table3", "ablations"} {
		t.Run(exp, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-exp", exp, "-vehicles", "8", "-days", "1100"}, &out); err != nil {
				t.Fatal(err)
			}
			got := timingText.ReplaceAll(out.Bytes(), nil)

			path := filepath.Join("testdata", exp+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", exp, path, got, want)
			}
		})
	}
}
