// Command reproduce regenerates the paper's tables and figures on the
// simulated platforms and prints them next to the paper's reported values.
//
// Usage:
//
//	reproduce [-experiment all|table1|table2|table3|fig3|fig4|fig5|fig6] [-scale N] [-seed N] [-workers N]
//	reproduce -trace out.json [-stats out.json] [-cell fig4:S:C|fig5:S] [-trace-spans N]
//	          [-stats-window D] [-stats-format json|openmetrics|csv] [-stats-top N] [-scale N] [-seed N]
//
// -scale divides the steady-state measurement windows (1 = full length, as
// recorded in EXPERIMENTS.md; larger is faster but noisier). -workers sets
// how many experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial);
// results are identical for every worker count.
//
// -trace and -stats each attach an observer to ONE cell, named by -cell
// (default fig4:1:2, the 9634 UMC/GMI link under equal over-subscribing
// demands; fig5:S is a Figure 5 panel), over its measurement window:
//
// -trace attaches the hop-level flight recorder, prints the
// latency-breakdown and per-hop counter reports, and writes the spans as
// Chrome trace_event JSON (open at https://ui.perfetto.dev; inspect later
// with cmd/chiplettrace).
//
// -stats attaches the windowed-metrics registry with the online anomaly
// detectors, streams a top-like per-window bottleneck view while the
// simulation runs, prints the family summary, the ranked bottleneck
// report and the incident table, and writes the per-window series in the
// -stats-format format (inspect a JSON dump later with cmd/chipletstat).
//
// With both, the two observers share one engine and one window, and the
// trace file is the fused export: the span timeline plus the detected
// incidents as an annotation track, onset/clear markers landing inside
// the windows whose spans show the congestion.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/anomaly"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	experiment := flag.String("experiment", "all", "which experiment to run")
	scale := flag.Int("scale", 1, "time-scale divisor for measurement windows")
	seed := flag.Uint64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS, 1 = serial)")
	cellName := flag.String("cell", "fig4:1:2", "cell to observe with -trace/-stats: fig4:SCENARIO:CASE or fig5:SCENARIO (see fig4/fig5 output order)")
	traceFile := flag.String("trace", "", "write a flight-recorder trace of the -cell cell to this file (Chrome trace_event JSON)")
	traceSpans := flag.Int("trace-spans", 1<<20, "span ring capacity for -trace (oldest spans overwritten beyond this)")
	statsFile := flag.String("stats", "", "write windowed metrics of the -cell cell to this file (format per -stats-format)")
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
	if *traceFile != "" || *statsFile != "" {
		cell, err := harness.ParseCell(*cellName)
		if err != nil {
			log.Fatal(err)
		}
		if *statsFile != "" && *statsWindow <= 0 {
			log.Fatalf("-stats-window %v must be positive", *statsWindow)
		}
		win := units.Nanos(float64(statsWindow.Nanoseconds()))
		err = runCell(opt, cell, *traceFile, *traceSpans, *statsFile, win, *statsFormat, *statsTop)
		if err != nil {
			log.Fatalf("%v: %v", cell, err)
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

// runCell runs one cell with the observers -trace and -stats ask for,
// prints each observer's reports and writes its file.
func runCell(opt harness.Options, cell harness.Cell, tracePath string, spanCap int, statsPath string, window units.Time, format string, top int) error {
	var obs harness.Observers
	var mon *anomaly.Monitor
	var writeStats func(io.Writer) error
	if statsPath != "" {
		reg := metrics.New(metrics.Config{Window: window})
		switch format {
		case "json":
			writeStats = func(w io.Writer) error { return reg.Dump().WriteJSON(w) }
		case "openmetrics":
			writeStats = func(w io.Writer) error { return metrics.WriteOpenMetrics(w, reg) }
		case "csv":
			writeStats = func(w io.Writer) error { return metrics.WriteCSV(w, reg) }
		default:
			return fmt.Errorf("unknown format %q; choose json, openmetrics or csv", format)
		}
		mon = anomaly.Attach(reg, anomaly.Config{})
		if top > 0 {
			reg.OnHarvest(func() {
				fmt.Println(metrics.RenderWindow(reg, reg.Total()-1, top))
			})
		}
		obs.Registry = reg
	}
	if tracePath != "" {
		obs.Tracer = trace.New(trace.Config{SpanCap: spanCap})
	}
	res, _, err := harness.RunCell(opt, cell, obs)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())

	if reg := obs.Registry; reg != nil {
		fmt.Println(metrics.FamilySummary(reg))
		fmt.Println(metrics.BottleneckReport(reg, 3))
		fmt.Println("incidents:")
		fmt.Println(anomaly.Report(mon.Incidents()))
		if err := writeFile(statsPath, writeStats); err != nil {
			return err
		}
		fmt.Printf("wrote %d windows x %d instruments to %s (%s)\n",
			reg.Total(), reg.NumInstruments(), statsPath, format)
	}
	if tr := obs.Tracer; tr != nil {
		fmt.Println(tr.BreakdownReport(10))
		fmt.Println("per-hop counter registry:")
		fmt.Println(tr.CounterReport())
		writeTrace := tr.WriteTraceEvents
		msg := fmt.Sprintf("wrote %d spans to %s — open at https://ui.perfetto.dev or inspect with chiplettrace",
			tr.SpanCount(), tracePath)
		if mon != nil {
			writeTrace = func(w io.Writer) error { return anomaly.WriteFusedTraceEvents(w, tr, mon.Incidents()) }
			msg = fmt.Sprintf("wrote fused trace: %d spans + %d incident annotations to %s — open at https://ui.perfetto.dev",
				tr.SpanCount(), mon.NumIncidents(), tracePath)
		}
		if err := writeFile(tracePath, writeTrace); err != nil {
			return err
		}
		fmt.Println(msg)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
