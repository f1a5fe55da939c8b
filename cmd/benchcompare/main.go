// Command benchcompare diffs the latest two run records of the
// repository's curated benchmark files (BENCH_ml.json, BENCH_serve.json,
// BENCH_ingest.json — each a JSON array of run records as written by
// scripts/bench_*.sh) and prints a per-benchmark ratio table. With -hot,
// a named hot benchmark whose ns/op regressed beyond -threshold fails
// the run with exit 1; everything else is informational. The committed
// files keep one record per measurement point (e.g. pre/post an
// optimization PR, same machine and budget), so "latest two" is exactly
// the before/after pair of the most recent change. Rows present in
// only one record are listed as "new" or "removed".
//
// Usage:
//
//	benchcompare [-hot name,name/...] [-threshold 1.10] FILE...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type benchResult struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	BPerOp      *float64 `json:"b_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

type runRecord struct {
	Label     string        `json:"label"`
	Benchtime string        `json:"benchtime"`
	CPU       string        `json:"cpu"`
	Results   []benchResult `json:"results"`
}

// row is one benchmark's old-vs-new comparison.
type row struct {
	name    string
	oldNs   float64
	newNs   float64
	ratio   float64 // new/old; > 1 is a slowdown
	hot     bool
	newRow  bool // present only in the newer record
	removed bool // present only in the older record
}

// hotMatch reports whether a benchmark name is covered by one of the
// guarded names: exact, or a sub-benchmark of it.
func hotMatch(name string, hot []string) bool {
	for _, h := range hot {
		if name == h || strings.HasPrefix(name, h+"/") {
			return true
		}
	}
	return false
}

// compareRuns pairs the two records' results by benchmark name and
// returns the comparison rows (new record's order, then the rows only
// the old record has) plus the hot benchmarks whose slowdown exceeds
// threshold.
func compareRuns(old, new runRecord, hot []string, threshold float64) (rows []row, regressions []string) {
	prev := make(map[string]benchResult, len(old.Results))
	for _, r := range old.Results {
		prev[r.Name] = r
	}
	seen := make(map[string]bool, len(new.Results))
	for _, r := range new.Results {
		seen[r.Name] = true
		o, ok := prev[r.Name]
		if !ok {
			rows = append(rows, row{name: r.Name, newNs: r.NsPerOp, newRow: true})
			continue
		}
		rr := row{name: r.Name, oldNs: o.NsPerOp, newNs: r.NsPerOp, hot: hotMatch(r.Name, hot)}
		if o.NsPerOp > 0 {
			rr.ratio = r.NsPerOp / o.NsPerOp
		}
		rows = append(rows, rr)
		if rr.hot && rr.ratio > threshold {
			regressions = append(regressions, fmt.Sprintf("%s: %.3gms -> %.3gms (%.2fx)",
				r.Name, o.NsPerOp/1e6, r.NsPerOp/1e6, rr.ratio))
		}
	}
	for _, o := range old.Results {
		if !seen[o.Name] {
			rows = append(rows, row{name: o.Name, oldNs: o.NsPerOp, hot: hotMatch(o.Name, hot), removed: true})
		}
	}
	return rows, regressions
}

func label(r runRecord, idx int) string {
	if r.Label != "" {
		return r.Label
	}
	return fmt.Sprintf("record[%d]", idx)
}

func printTable(file string, old, new runRecord, oldIdx, newIdx int, rows []row) {
	fmt.Printf("## %s: %s -> %s", file, label(old, oldIdx), label(new, newIdx))
	if old.CPU != new.CPU || old.Benchtime != new.Benchtime {
		fmt.Printf("  (environments differ: %q@%s vs %q@%s — ratios indicative only)",
			old.CPU, old.Benchtime, new.CPU, new.Benchtime)
	}
	fmt.Println()
	fmt.Printf("%-52s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, r := range rows {
		mark := ""
		if r.hot {
			mark = " *"
		}
		switch {
		case r.newRow:
			fmt.Printf("%-52s %14s %14.0f %8s\n", r.name+mark, "-", r.newNs, "new")
		case r.removed:
			fmt.Printf("%-52s %14.0f %14s %8s\n", r.name+mark, r.oldNs, "-", "removed")
		default:
			fmt.Printf("%-52s %14.0f %14.0f %7.2fx\n", r.name+mark, r.oldNs, r.newNs, r.ratio)
		}
	}
}

func run(files []string, hot []string, threshold float64) int {
	exit := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
			exit = 1
			continue
		}
		var records []runRecord
		if err := json.Unmarshal(data, &records); err != nil {
			fmt.Fprintf(os.Stderr, "benchcompare: %s: %v\n", file, err)
			exit = 1
			continue
		}
		if len(records) < 2 {
			fmt.Printf("## %s: %d record(s), nothing to compare\n", file, len(records))
			continue
		}
		oldIdx, newIdx := len(records)-2, len(records)-1
		rows, regressions := compareRuns(records[oldIdx], records[newIdx], hot, threshold)
		printTable(file, records[oldIdx], records[newIdx], oldIdx, newIdx, rows)
		for _, reg := range regressions {
			fmt.Fprintf(os.Stderr, "benchcompare: REGRESSION %s (threshold %.2fx)\n", reg, threshold)
			exit = 1
		}
	}
	return exit
}

func main() {
	hotFlag := flag.String("hot", "", "comma-separated benchmark names guarded against regression (sub-benchmarks included)")
	threshold := flag.Float64("threshold", 1.10, "max allowed new/old ns per op ratio for hot benchmarks")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcompare [-hot names] [-threshold 1.10] FILE...")
		os.Exit(2)
	}
	var hot []string
	for _, h := range strings.Split(*hotFlag, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hot = append(hot, h)
		}
	}
	os.Exit(run(flag.Args(), hot, *threshold))
}
