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
//
// -from/-to (simulated microseconds) restrict every report to the spans
// overlapping [from, to) — pass a metrics harvest window's bounds (an
// incident's onset window, as reproduce -stats prints it) to fuse a
// recorded trace with that window offline. A fused trace written by
// reproduce -trace -stats carries its incident annotations.
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
	if *txnID != 0 {
		fmt.Print(ld.TxnDetail(*txnID))
		return
	}
	fmt.Print(ld.Report(*top))
}
