// Command reproduce regenerates the paper's tables and figures on the
// simulated platforms and prints them next to the paper's reported values.
//
// Usage:
//
//	reproduce [-experiment all|table1|table2|table3|fig3|fig4|fig5|fig6|ablation] [-scale N] [-seed N] [-workers N]
//	reproduce -trace out.json [-stats out.json] [-cell fig4:S:C|fig5:S] [-trace-spans N]
//	          [-stats-window D] [-stats-top N] [-scale N] [-seed N]
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
// report and the incident table, and writes the per-window series as a
// JSON dump (inspect it later, or convert it to OpenMetrics or CSV, with
// cmd/chipletstat).
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
	"slices"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reproduce: ")
	exps := harness.Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	experiment := flag.String("experiment", "all", "which experiment to run: all or one of "+strings.Join(names, " "))
	scale := flag.Int("scale", 1, "time-scale divisor for measurement windows")
	seed := flag.Uint64("seed", 42, "simulation seed")
	workers := flag.Int("workers", 0, "concurrent experiment cells (0 = GOMAXPROCS, 1 = serial)")
	cellName := flag.String("cell", "fig4:1:2", "cell to observe with -trace/-stats: fig4:SCENARIO:CASE or fig5:SCENARIO (see fig4/fig5 output order)")
	traceFile := flag.String("trace", "", "write a flight-recorder trace of the -cell cell to this file (Chrome trace_event JSON)")
	traceSpans := flag.Int("trace-spans", 1<<20, "span ring capacity for -trace (oldest spans overwritten beyond this)")
	statsFile := flag.String("stats", "", "write windowed metrics of the -cell cell to this file (JSON dump; convert with chipletstat -format)")
	statsWindow := flag.Duration("stats-window", 100*time.Microsecond, "harvest window in simulated time (100us = the paper's 100 ms at 1:1000)")
	statsTop := flag.Int("stats-top", 5, "rows in the live per-window bottleneck view (0 disables live output)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (post-GC heap) to this file")
	flag.Parse()
	switch {
	case *scale < 1:
		log.Fatalf("-scale %d must be at least 1", *scale)
	case *workers < 0:
		log.Fatalf("-workers %d must not be negative", *workers)
	case *traceSpans < 1:
		log.Fatalf("-trace-spans %d must be positive", *traceSpans)
	case *statsTop < 0:
		log.Fatalf("-stats-top %d must not be negative", *statsTop)
	}

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
		err = runCell(opt, cell, *traceFile, *traceSpans, *statsFile, win, *statsTop)
		if err != nil {
			log.Fatalf("%v: %v", cell, err)
		}
		return
	}
	if *experiment != "all" {
		i := slices.Index(names, *experiment)
		if i < 0 {
			log.Printf("unknown experiment %q; choose one of: all %v", *experiment, names)
			os.Exit(2)
		}
		exps = exps[i : i+1]
	}
	for _, e := range exps {
		if err := e.Run(opt, os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
	}
}

// runCell runs one cell with the observers -trace and -stats ask for,
// prints each observer's reports and writes its file.
func runCell(opt harness.Options, cell harness.Cell, tracePath string, spanCap int, statsPath string, window units.Time, top int) error {
	var obs harness.Observers
	var mon *anomaly.Monitor
	if statsPath != "" {
		reg := metrics.New(metrics.Config{Window: window})
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
		if err := writeFile(statsPath, reg.Dump().WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %d windows x %d instruments to %s (json)\n",
			reg.Total(), reg.NumInstruments(), statsPath)
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
