// Command repro regenerates every table and figure of the paper's
// evaluation section on the synthetic fleet (DESIGN.md documents the
// data substitution). Output is plain text; figures are printed as
// aligned numeric series that plot directly with any external tool.
//
// Usage:
//
//	repro [-exp all|fig1|fig2|fig3|table1|fig4|table2|fig5|table3|timing|ablations]
//	      [-vehicles 24] [-days 1735] [-seed 42] [-tuned] [-full] [-w 0]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		log.Print(err)
		os.Exit(2)
	}
}

// run parses args, builds the synthetic fleet and writes the selected
// experiment(s) to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment to run: all, fig1, fig2, fig3, table1, fig4, table2, fig5, table3, timing, ablations")
		vehicles = fs.Int("vehicles", 24, "fleet size")
		days     = fs.Int("days", 1735, "acquisition horizon in days")
		seed     = fs.Uint64("seed", 42, "master random seed")
		tuned    = fs.Bool("tuned", false, "grid-search hyper-parameters with 5-fold CV (slower)")
		full     = fs.Bool("full", false, "with -tuned: use the paper's full grid ranges")
		window   = fs.Int("w", 0, "window W for table1/table3/timing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := experiments.Scale{
		Vehicles:   *vehicles,
		Days:       *days,
		Seed:       *seed,
		GridSearch: *tuned,
		FullGrid:   *full,
		Corrupt:    true,
	}

	t0 := time.Now()
	env, err := experiments.NewEnv(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# fleet: %d vehicles, %d days, seed %d — %d old vehicles, %d values repaired by cleaning (%.1fs)\n\n",
		scale.Vehicles, scale.Days, scale.Seed, len(env.Olds), env.CleanRepairs, time.Since(t0).Seconds())

	var fig4 []experiments.Fig4Series
	fig4Cached := func() ([]experiments.Fig4Series, error) {
		if fig4 != nil {
			return fig4, nil
		}
		s, err := env.Figure4(experiments.DefaultWindows())
		if err == nil {
			fig4 = s
		}
		return s, err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"fig1", func() error { return runFig1(out, env) }},
		{"fig2", func() error { return runFig2(out, env) }},
		{"fig3", func() error { return runFig3(out, env) }},
		{"table1", func() error { return runTable1(out, env, *window) }},
		{"fig4", func() error { return runFig4(out, env) }},
		{"table2", func() error { return runTable2(out, fig4Cached) }},
		{"fig5", func() error { return runFig5(out, env, fig4Cached) }},
		{"table3", func() error { return runTable3(out, env, *window) }},
		{"timing", func() error { return runTiming(out, env, *window) }},
		{"ablations", func() error { return runAblations(out, env) }},
	}
	ran := false
	for _, s := range steps {
		if *exp != "all" && *exp != s.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(out, "## (%s finished in %.1fs)\n\n", s.name, time.Since(start).Seconds())
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func printSeries(out io.Writer, title, xLabel, yLabel string, series []experiments.SeriesXY) {
	fmt.Fprintf(out, "== %s ==\n", title)
	for _, s := range series {
		fmt.Fprintf(out, "-- series %s (%s -> %s), %d points --\n", s.Name, xLabel, yLabel, len(s.X))
		for i := range s.X {
			fmt.Fprintf(out, "%10.1f %12.1f\n", s.X[i], s.Y[i])
		}
	}
}

func runFig1(out io.Writer, env *experiments.Env) error {
	s, err := env.Figure1()
	if err != nil {
		return err
	}
	printSeries(out, "Figure 1: daily utilization U_v(t), two sample vehicles", "t", "U_v(t) [s]", s)
	return nil
}

func runFig2(out io.Writer, env *experiments.Env) error {
	s, err := env.Figure2()
	if err != nil {
		return err
	}
	printSeries(out, "Figure 2: days to next maintenance D_v(t)", "t", "D_v(t) [days]", s)
	fmt.Fprintln(out, "-- cycle statistics --")
	fmt.Fprintf(out, "%-6s %6s %9s %9s %9s %7s\n", "veh", "cycles", "first[d]", "later-min", "later-max", "median")
	for _, st := range env.CycleStatistics() {
		fmt.Fprintf(out, "%-6s %6d %9d %9d %9d %7d\n", st.VehicleID, st.CycleCount, st.FirstCycle, st.LaterMin, st.LaterMax, st.LaterMedian)
	}
	return nil
}

func runFig3(out io.Writer, env *experiments.Env) error {
	s, err := env.Figure3()
	if err != nil {
		return err
	}
	printSeries(out, "Figure 3: D_v(t) vs utilization seconds left L_v(t), one cycle", "L_v(t) [s]", "D_v(t) [days]", s)
	return nil
}

func runTable1(out io.Writer, env *experiments.Env, w int) error {
	rows, err := env.Table1(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== Table 1: EMRE({1..29}), W=%d, trained on all data vs last-29-days region ==\n", w)
	fmt.Fprintf(out, "%-6s %12s %14s %11s\n", "alg", "all-data", "restricted", "reduction")
	for _, r := range rows {
		fmt.Fprintf(out, "%-6s %12.1f %14.1f %10.0f%%\n", r.Algorithm, r.AllData, r.Restricted, r.ReductionPct)
	}
	return nil
}

func runFig4(out io.Writer, env *experiments.Env) error {
	series, err := env.Figure4(experiments.DefaultWindows())
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Figure 4: improvement (%) vs W=0 by window size (restricted training) ==")
	header := fmt.Sprintf("%-6s", "W")
	for _, s := range series {
		header += fmt.Sprintf(" %14s", s.Algorithm)
	}
	fmt.Fprintln(out, header)
	for i, w := range series[0].Windows {
		line := fmt.Sprintf("%-6d", w)
		for _, s := range series {
			line += fmt.Sprintf(" %6.1f (%5.2f)", s.ImprovementPct[i], s.EMRE[i])
		}
		fmt.Fprintln(out, line+"   // improvement% (EMRE)")
	}
	return nil
}

func runTable2(out io.Writer, fig4Cached func() ([]experiments.Fig4Series, error)) error {
	fig4, err := fig4Cached()
	if err != nil {
		return err
	}
	rows, err := experiments.Table2(fig4)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Table 2: best window W and resulting EMRE({1..29}) ==")
	fmt.Fprintf(out, "%-6s %7s %10s\n", "alg", "best-W", "EMRE")
	for _, r := range rows {
		fmt.Fprintf(out, "%-6s %7d %10.1f\n", r.Algorithm, r.BestW, r.EMRE)
	}
	return nil
}

func runFig5(out io.Writer, env *experiments.Env, fig4Cached func() ([]experiments.Fig4Series, error)) error {
	fig4, err := fig4Cached()
	if err != nil {
		return err
	}
	t2, err := experiments.Table2(fig4)
	if err != nil {
		return err
	}
	series, err := env.Figure5(t2)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Figure 5: EMRE({d}) per single day-to-deadline d (best configs) ==")
	header := fmt.Sprintf("%-4s", "d")
	for _, s := range series {
		header += fmt.Sprintf(" %10s(W=%d)", s.Algorithm, s.BestW)
	}
	fmt.Fprintln(out, header)
	for d := 1; d <= 29; d++ {
		line := fmt.Sprintf("%-4d", d)
		any := false
		for _, s := range series {
			v := math.NaN()
			for i, day := range s.Days {
				if day == d {
					v = s.EMRE[i]
					break
				}
			}
			if !math.IsNaN(v) {
				any = true
			}
			line += fmt.Sprintf(" %15.2f", v)
		}
		if any {
			fmt.Fprintln(out, line)
		}
	}
	return nil
}

func runTable3(out io.Writer, env *experiments.Env, w int) error {
	useW := w
	if useW == 0 {
		useW = 6
	}
	rows, err := env.Table3(useW)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== Table 3: semi-new EMRE({1..29}) and new-vehicle EGlobal (W=%d) ==\n", useW)
	fmt.Fprintf(out, "%-10s %14s %12s\n", "model", "semi-new EMRE", "new EGlobal")
	for _, r := range rows {
		semi, fresh := "-", "-"
		if !math.IsNaN(r.SemiNewEMRE) {
			semi = fmt.Sprintf("%.1f", r.SemiNewEMRE)
		}
		if !math.IsNaN(r.NewEGlobal) {
			fresh = fmt.Sprintf("%.1f", r.NewEGlobal)
		}
		fmt.Fprintf(out, "%-10s %14s %12s\n", r.Model, semi, fresh)
	}
	return nil
}

func runTiming(out io.Writer, env *experiments.Env, w int) error {
	rows, err := env.Timing(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== Timing: mean per-vehicle train/predict seconds (W=%d) ==\n", w)
	fmt.Fprintf(out, "%-6s %12s %14s %9s\n", "alg", "train [s]", "predict [s]", "vehicles")
	for _, r := range rows {
		fmt.Fprintf(out, "%-6s %12.3f %14.6f %9d\n", r.Algorithm, r.MeanTrainSeconds, r.MeanPredictSeconds, r.Vehicles)
	}
	return nil
}

func runAblations(out io.Writer, env *experiments.Env) error {
	fmt.Fprintln(out, "== Ablations (DESIGN.md §5) ==")
	print := func(rows []experiments.AblationRow, err error) error {
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(out, "%-28s %-16s EMRE=%6.2f\n", r.Name, r.Variant, r.EMRE)
		}
		fmt.Fprintln(out, strings.Repeat("-", 56))
		return nil
	}
	if err := print(env.AblationPooledVsPerVehicle(core.RF, 6)); err != nil {
		return err
	}
	if err := print(env.AblationAugmentation(core.RF, 6, 5)); err != nil {
		return err
	}
	if err := print(env.AblationHistogramBins(6, []int{8, 32, 256})); err != nil {
		return err
	}
	if err := print(env.AblationRestriction(core.RF, 0)); err != nil {
		return err
	}
	rows, err := env.Table3DTW(6)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(out, "%-28s %-16s EMRE=%6.2f\n", "similarity-measure", r.Model, r.SemiNewEMRE)
	}
	return nil
}
