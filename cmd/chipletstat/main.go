// Command chipletstat inspects windowed-metrics dumps written by
// `reproduce -stats` (JSON format) without re-running any simulation:
// a top-like per-window view of the most congested resources, the
// per-window bottleneck attribution report, per-family traffic totals,
// and conversion to OpenMetrics or CSV for external tooling.
//
// Usage:
//
//	chipletstat -in stats.json [-top N]              summary + last window
//	chipletstat -in stats.json -window 3             one window's top view
//	chipletstat -in stats.json -all                  every window's top view
//	chipletstat -in stats.json -format csv -o f.csv  re-export the series
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chipletstat: ")
	in := flag.String("in", "", "metrics dump to inspect (JSON from reproduce -stats; required)")
	window := flag.Int("window", -1, "render this window's top view instead of the summary")
	all := flag.Bool("all", false, "render every recorded window's top view")
	top := flag.Int("top", 5, "rows per window in the top views and bottleneck report")
	format := flag.String("format", "", "re-export the series as openmetrics, csv or json instead of reporting")
	out := flag.String("o", "", "output file for -format (default stdout)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	d, err := metrics.ReadJSON(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if *format != "" {
		if err := export(d, *format, *out); err != nil {
			log.Fatal(err)
		}
		return
	}
	switch {
	case *all:
		for w := d.FirstWindow(); w < d.Total(); w++ {
			fmt.Println(metrics.RenderWindow(d, w, *top))
		}
	case *window >= 0:
		if *window < d.FirstWindow() || *window >= d.Total() {
			log.Fatalf("window %d out of range [%d,%d)", *window, d.FirstWindow(), d.Total())
		}
		fmt.Println(metrics.RenderWindow(d, *window, *top))
	default:
		summary(os.Stdout, d, *top)
	}
}

// summary writes the default report: per-family totals, the per-window
// bottleneck attribution and the newest window's top view. A dump with
// no windows (a run shorter than one harvest window) has no newest
// window to render, and says so.
func summary(w io.Writer, d *metrics.Dump, top int) {
	fmt.Fprintln(w, metrics.FamilySummary(d))
	fmt.Fprintln(w, metrics.BottleneckReport(d, top))
	if d.Total() == d.FirstWindow() {
		fmt.Fprintln(w, "no windows recorded")
		return
	}
	fmt.Fprintln(w, metrics.RenderWindow(d, d.Total()-1, top))
}

// export rewrites the dump in another exposition format.
func export(d *metrics.Dump, format, path string) error {
	var w io.Writer = os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "openmetrics":
		return metrics.WriteOpenMetrics(w, d)
	case "csv":
		return metrics.WriteCSV(w, d)
	case "json":
		return d.WriteJSON(w)
	default:
		return fmt.Errorf("unknown format %q; choose openmetrics, csv or json", format)
	}
}
