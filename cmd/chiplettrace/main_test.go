package main

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// twoHops is a trace of two transactions, each with one span on each of
// two hops.
const twoHops = `{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"umc0/rd","kind":"channel"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"noc/rd","kind":"channel"}},
{"ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.010,"name":"queued","args":{"txn":1}},
{"ph":"X","pid":1,"tid":2,"ts":0.010,"dur":0.005,"name":"serializing","args":{"txn":1}},
{"ph":"X","pid":1,"tid":1,"ts":0.000,"dur":0.020,"name":"queued","args":{"txn":2}},
{"ph":"X","pid":1,"tid":2,"ts":0.020,"dur":0.005,"name":"serializing","args":{"txn":2}}
]}`

// TestTopZeroListsNoRows: -top 0 prints the report's sections with no hop
// or transaction rows, as chipletstat -top 0 prints no resource rows;
// -top 1 prints one row in each list.
func TestTopZeroListsNoRows(t *testing.T) {
	ld, err := trace.ReadTraceEvents(strings.NewReader(twoHops))
	if err != nil {
		t.Fatal(err)
	}
	for top, rows := range map[int]int{0: 0, 1: 1} {
		out := ld.Report(top)
		hops, txns := 0, 0
		section := ""
		for _, line := range strings.Split(out, "\n") {
			switch {
			case !strings.HasPrefix(line, " "):
				section = line
			case section == "span time by hop:":
				hops++
			case strings.HasPrefix(section, "slowest transactions"):
				txns++
			}
		}
		if hops != rows || txns != rows {
			t.Errorf("-top %d lists %d hop and %d transaction rows, want %d each:\n%s", top, hops, txns, rows, out)
		}
	}
}
