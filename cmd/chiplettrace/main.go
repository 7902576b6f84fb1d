// Command chiplettrace inspects flight-recorder traces written by
// `reproduce -trace` (Chrome trace_event JSON) without re-running any
// simulation: per-cause and per-hop time totals, the slowest transactions
// with their attribution, and the full hop-by-hop timeline of a single
// transaction.
//
// Usage:
//
//	chiplettrace -in trace.json [-top N]         summary report
//	chiplettrace -in trace.json -txn 812         one transaction's timeline
//	chiplettrace -in trace.json -from 300 -to 400
//	                                             report one time window only
//	chiplettrace -in trace.json -incidents incidents.json
//	                                             overlay a saved incident feed
//	chiplettrace -in trace.json -incidents incidents.json -o fused.json
//	                                             write the fused trace file
//
// -from/-to (simulated microseconds) restrict every report to the spans
// overlapping [from, to) — pass a metrics harvest window's bounds (an
// incident's onset_start_ps/onset_end_ps, divided by 1e6) to fuse a
// recorded trace with that window offline.
//
// -incidents loads an incident feed (the JSON array anomaly.WriteJSON
// writes; unknown keys are ignored) and fuses it with the trace: without -o it prints each incident over the
// span population of its onset window; with -o it writes one Chrome-trace
// file where the incidents become an annotation track (onset/clear
// instant markers, resource + severity args) overlaid on the span
// timeline. A fused file read back with -in carries its annotations.
//
// The same JSON loads in https://ui.perfetto.dev for visual inspection;
// this tool covers the cases where a number, not a picture, is wanted.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/anomaly"
	"repro/internal/trace"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chiplettrace: ")
	in := flag.String("in", "", "trace file to inspect (required)")
	top := flag.Int("top", 10, "rows in the per-hop and slowest-transaction lists")
	txnID := flag.Uint64("txn", 0, "print the hop-by-hop timeline of this transaction id instead of the summary")
	from := flag.Float64("from", 0, "restrict reports to spans overlapping [from, to) in simulated microseconds")
	to := flag.Float64("to", math.Inf(1), "window end in simulated microseconds (with -from)")
	incidentsIn := flag.String("incidents", "", "incident feed JSON to fuse with the trace")
	out := flag.String("o", "", "write the fused annotated trace to this file (with -incidents)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ld, err := trace.ReadTraceEvents(f)
	if err != nil {
		log.Fatal(err)
	}
	if *from > 0 || !math.IsInf(*to, 1) {
		if *to <= *from {
			log.Fatalf("-to %v must be after -from %v", *to, *from)
		}
		start := units.Time(*from * float64(units.Microsecond))
		end := units.Time(math.MaxInt64)
		if !math.IsInf(*to, 1) {
			end = units.Time(*to * float64(units.Microsecond))
		}
		n := len(ld.Spans)
		ld = ld.Window(start, end)
		fmt.Printf("window [%vus, %vus): %d of %d spans\n\n", *from, *to, len(ld.Spans), n)
	}
	if *incidentsIn != "" {
		if err := fuseIncidents(ld, *incidentsIn, *out, *top); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *txnID != 0 {
		fmt.Print(ld.TxnDetail(*txnID))
		return
	}
	fmt.Print(ld.Report(*top))
}

// fuseIncidents overlays a saved incident feed on the loaded trace:
// with an output path it writes the fused annotated trace file, otherwise
// it reports each incident over its onset window's span population.
func fuseIncidents(ld *trace.Loaded, incidentsPath, outPath string, top int) error {
	g, err := os.Open(incidentsPath)
	if err != nil {
		return err
	}
	incs, err := anomaly.ReadJSON(g)
	g.Close()
	if err != nil {
		return err
	}
	if outPath != "" {
		var end units.Time
		for _, s := range ld.Spans {
			if s.End > end {
				end = s.End
			}
		}
		ld.Annotations = anomaly.Annotations(incs, end)
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := ld.WriteTraceEvents(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote fused trace: %d spans + %d incident annotations to %s — open at https://ui.perfetto.dev\n",
			len(ld.Spans), len(ld.Annotations), outPath)
		return nil
	}
	fmt.Printf("fusing %d incidents with %d spans\n\n", len(incs), len(ld.Spans))
	for _, in := range incs {
		w := ld.Window(in.OnsetStart, in.OnsetEnd)
		fmt.Print(anomaly.RenderIncident(in))
		fmt.Printf("\nonset window [%v,%v): %d spans overlap\n", in.OnsetStart, in.OnsetEnd, len(w.Spans))
		fmt.Println(w.Report(top))
	}
	return nil
}
