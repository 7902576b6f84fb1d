// Command reproduce regenerates the paper's tables and figures on the
// simulated platforms and prints them next to the paper's reported values.
//
// Usage:
//
//	reproduce [-experiment all|table1|table2|table3|fig3|fig4|fig5|fig6] [-scale N] [-seed N] [-workers N]
//	reproduce -trace out.json [-trace-scenario N] [-trace-case N] [-trace-spans N] [-scale N] [-seed N]
//	reproduce -stats out.json [-stats-experiment fig4|fig5] [-stats-scenario N] [-stats-case N]
//	          [-stats-window D] [-stats-format json|openmetrics|csv] [-stats-top N]
//	reproduce -trace fused.json -stats stats.json [-trace-scenario N] [-trace-case N]
//	          [-stats-window D] [-stats-format ...]
//
// -scale divides the steady-state measurement windows (1 = full length, as
// recorded in EXPERIMENTS.md; larger is faster but noisier). -workers sets
// how many experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial);
// results are identical for every worker count.
//
// -trace runs one Figure 4 cell with the hop-level flight recorder
// enabled over the measurement window, writes the spans as Chrome
// trace_event JSON (open at https://ui.perfetto.dev), and prints the
// latency-breakdown and per-hop counter reports. Inspect the file later
// with cmd/chiplettrace.
//
// -stats runs one cell with the windowed-metrics registry harvesting
// over the measurement window, streams a top-like per-window bottleneck
// view while the simulation runs, prints the ranked bottleneck report,
// and writes the full per-window series to the file in the chosen
// format. Inspect a JSON dump later with cmd/chipletstat.
//
// -trace and -stats together run ONE fused cell: the flight recorder and
// the windowed-metrics registry (with the online anomaly detectors
// attached) observe the same engine over the same measurement window.
// The stats file gets the per-window series as usual; the trace file
// gets the fused export — the span timeline plus the detected incidents
// as an annotation track, onset/clear markers landing inside the windows
// whose spans show the congestion. The cell is selected by
// -trace-scenario/-trace-case; -stats-window/-stats-format apply.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/anomaly"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/topology"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	experiment := flag.String("experiment", "all", "which experiment to run")
	scale := flag.Int("scale", 1, "time-scale divisor for measurement windows")
	seed := flag.Uint64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS, 1 = serial)")
	traceFile := flag.String("trace", "", "write a flight-recorder trace of one Figure 4 cell to this file (Chrome trace_event JSON)")
	traceScenario := flag.Int("trace-scenario", 1, "Figure 4 scenario index to trace (see fig4 output order)")
	traceCase := flag.Int("trace-case", 2, "Figure 4 demand case index to trace (default: equal over-subscribing demands)")
	traceSpans := flag.Int("trace-spans", 1<<20, "span ring capacity for -trace (oldest spans overwritten beyond this)")
	statsFile := flag.String("stats", "", "write windowed metrics of one cell to this file (format per -stats-format)")
	statsExp := flag.String("stats-experiment", "fig4", "cell to instrument with -stats: fig4 (steady state) or fig5 (fluctuating demand)")
	statsScenario := flag.Int("stats-scenario", 1, "scenario index for -stats (fig4 default: 9634 UMC/GMI)")
	statsCase := flag.Int("stats-case", 2, "Figure 4 demand case index for -stats (default: equal over-subscribing demands)")
	statsWindow := flag.Duration("stats-window", 100*time.Microsecond, "harvest window in simulated time (100us = the paper's 100 ms at 1:1000)")
	statsFormat := flag.String("stats-format", "json", "-stats export format: json, openmetrics or csv")
	statsTop := flag.Int("stats-top", 5, "rows in the live per-window bottleneck view (0 disables live output)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (post-GC heap) to this file")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	opt := harness.Options{Seed: *seed, TimeScale: *scale, Workers: *workers}
	if *traceFile != "" && *statsFile != "" {
		win := units.Nanos(float64(statsWindow.Nanoseconds()))
		err := runFused(opt, *traceScenario, *traceCase, *traceSpans, win, *statsFormat, *statsTop, *traceFile, *statsFile)
		if err != nil {
			log.Fatalf("fused: %v", err)
		}
		return
	}
	if *traceFile != "" {
		if err := runTrace(opt, *traceScenario, *traceCase, *traceSpans, *traceFile); err != nil {
			log.Fatalf("trace: %v", err)
		}
		return
	}
	if *statsFile != "" {
		win := units.Nanos(float64(statsWindow.Nanoseconds()))
		err := runStats(opt, *statsExp, *statsScenario, *statsCase, win, *statsFormat, *statsTop, *statsFile)
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		return
	}
	run := map[string]func(harness.Options) error{
		"table1":   runTable1,
		"table2":   runTable2,
		"table3":   runTable3,
		"fig3":     runFigure3,
		"fig4":     runFigure4,
		"fig5":     runFigure5,
		"fig6":     runFigure6,
		"ablation": runAblations,
	}
	order := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "ablation"}
	if *experiment == "all" {
		for _, name := range order {
			if err := run[name](opt); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	fn, ok := run[*experiment]
	if !ok {
		log.Printf("unknown experiment %q; choose one of: all %v", *experiment, order)
		os.Exit(2)
	}
	if err := fn(opt); err != nil {
		log.Fatalf("%s: %v", *experiment, err)
	}
}

// runTrace runs one Figure 4 cell with the flight recorder on, writes
// the Perfetto-loadable trace and prints the analysis reports.
func runTrace(opt harness.Options, scenario, demandCase, spanCap int, path string) error {
	res, tr, err := harness.Figure4TraceCell(opt, scenario, demandCase, spanCap)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure4([]harness.Fig4Result{res}))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTraceEvents(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(tr.BreakdownReport(10))
	fmt.Println("per-hop counter registry:")
	fmt.Println(tr.CounterReport())
	fmt.Printf("wrote %d spans to %s — open at https://ui.perfetto.dev or inspect with chiplettrace\n",
		tr.SpanCount(), path)
	return nil
}

// runFused runs one Figure 4 cell with both observers on one engine —
// flight recorder plus windowed metrics with anomaly detectors — then
// writes the stats series and the fused annotated trace, and prints the
// incident table over the span timeline they both describe.
func runFused(opt harness.Options, scenario, demandCase, spanCap int, window units.Time, format string, top int, tracePath, statsPath string) error {
	switch format {
	case "json", "openmetrics", "csv":
	default:
		return fmt.Errorf("unknown format %q; choose json, openmetrics or csv", format)
	}
	reg := metrics.New(metrics.Config{Window: window})
	mon := anomaly.Attach(reg, anomaly.Config{})
	if top > 0 {
		reg.OnHarvest(func() {
			fmt.Println(metrics.RenderWindow(reg, reg.Total()-1, top))
		})
	}
	res, tr, err := harness.Figure4FusedCell(opt, scenario, demandCase, spanCap, reg)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure4([]harness.Fig4Result{res}))
	fmt.Println(metrics.BottleneckReport(reg, 3))
	fmt.Println("incidents:")
	fmt.Println(anomaly.Report(mon.Incidents()))

	f, err := os.Create(statsPath)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		err = reg.Dump().WriteJSON(f)
	case "openmetrics":
		err = metrics.WriteOpenMetrics(f, reg)
	case "csv":
		err = metrics.WriteCSV(f, reg)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d windows x %d instruments to %s (%s)\n",
		reg.Total(), reg.NumInstruments(), statsPath, format)

	g, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := anomaly.WriteFusedTraceEvents(g, tr, mon.Incidents()); err != nil {
		g.Close()
		return err
	}
	if err := g.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote fused trace: %d spans + %d incident annotations to %s — open at https://ui.perfetto.dev\n",
		tr.SpanCount(), mon.NumIncidents(), tracePath)
	return nil
}

// runStats runs one instrumented cell, streaming a top-like view per
// harvest window, then prints the ranked bottleneck report and writes
// the per-window series in the requested format.
func runStats(opt harness.Options, experiment string, scenario, demandCase int, window units.Time, format string, top int, path string) error {
	switch format {
	case "json", "openmetrics", "csv":
	default:
		return fmt.Errorf("unknown format %q; choose json, openmetrics or csv", format)
	}
	reg := metrics.New(metrics.Config{Window: window})
	if top > 0 {
		reg.OnHarvest(func() {
			fmt.Println(metrics.RenderWindow(reg, reg.Total()-1, top))
		})
	}
	switch experiment {
	case "fig4":
		res, err := harness.Figure4StatsCell(opt, scenario, demandCase, reg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderFigure4([]harness.Fig4Result{res}))
	case "fig5":
		res, err := harness.Figure5StatsRun(opt, scenario, reg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderFigure5([]*harness.Fig5Result{res}))
	default:
		return fmt.Errorf("unknown experiment %q; choose fig4 or fig5", experiment)
	}
	fmt.Println(metrics.FamilySummary(reg))
	fmt.Println(metrics.BottleneckReport(reg, 3))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		err = reg.Dump().WriteJSON(f)
	case "openmetrics":
		err = metrics.WriteOpenMetrics(f, reg)
	case "csv":
		err = metrics.WriteCSV(f, reg)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d windows x %d instruments to %s (%s)\n",
		reg.Total(), reg.NumInstruments(), path, format)
	return nil
}

func runTable1(harness.Options) error {
	fmt.Println("Table 1 — hardware specifications (from platform profiles)")
	fmt.Println(harness.RenderTable1(harness.Table1()))
	return nil
}

func runTable2(opt harness.Options) error {
	for _, p := range topology.Profiles() {
		res, err := harness.Table2(p, opt)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}
	return nil
}

func runTable3(opt harness.Options) error {
	for _, p := range topology.Profiles() {
		fmt.Println(harness.Table3(p, opt).Render())
	}
	return nil
}

func runFigure3(opt harness.Options) error {
	panels, err := harness.Figure3(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure3(panels))
	return nil
}

func runFigure4(opt harness.Options) error {
	rows, err := harness.Figure4(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure4(rows))
	return nil
}

func runFigure5(opt harness.Options) error {
	results, err := harness.Figure5(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure5(results))
	return nil
}

func runFigure6(opt harness.Options) error {
	curves, err := harness.Figure6(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderFigure6(curves))
	return nil
}

func runAblations(opt harness.Options) error {
	a1, err := harness.AblationTrafficManager(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA1(a1))
	for _, p := range topology.Profiles() {
		a2, err := harness.AblationNPS(p, opt)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderA2(a2))
	}
	a3, err := harness.AblationNUMA(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA3(a3))
	a4, err := harness.AblationCXLFlit(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA4(a4))
	a5, err := harness.AblationNoCModel(opt)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderA5(a5))
	return nil
}
