//go:build benchsmoke

package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A full trickle run with a 3-second window against the real binaries:
// go test -tags benchsmoke ./bench. It is behind a tag because it
// builds and boots servers, which tier-1 tests should not.
func TestSmokeTrickle(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	bins, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := findWorkload("trickle")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		trace       bool
		corrupt     bool
		wantCorrect bool
	}{
		{"untraced", false, false, true},
		{"traced", true, false, true},
		{"corrupted reference", false, true, false},
	} {
		b := &bench{root: root, bins: bins, seed: defaultSeed, window: 3 * time.Second, corruptRef: tc.corrupt}
		rec, err := b.runOne(sp, tc.trace, b.window)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.Correct != tc.wantCorrect {
			t.Errorf("%s: correct = %v, want %v (%v)", tc.name, rec.Correct, tc.wantCorrect, rec.Failures)
		}
		if tc.wantCorrect && rec.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", tc.name, rec.Failed, rec.Attempted, rec.Failures)
		}
		defs := endToEnd
		if tc.trace {
			defs = perLayer
		}
		for _, d := range defs {
			if v, ok := rec.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in the wrong unit: %+v", tc.name, d.Name, v)
			}
		}
		if tc.trace && len(rec.Absent) > 0 {
			t.Errorf("%s: per-layer sources missing: %v", tc.name, rec.Absent)
		}
	}
}
