// Incident rendering: the one-line live form the examples print at
// onset/clear, and the incident table.
package anomaly

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// RenderIncident renders one incident as a single line — the live form:
//
//	incident #0 OPEN  umc0/rd wait_ps (memsys): onset window 3 [300us,400us) ewma, severity 5.12 (baseline 0.02)
func RenderIncident(in Incident) string {
	var b strings.Builder
	state := "OPEN "
	if !in.Open() {
		state = "clear"
	}
	fmt.Fprintf(&b, "incident #%d %s %s %s (%s): onset window %d [%v,%v) %s, severity %.2f (baseline %.2f)",
		in.ID, state, in.Resource, in.Metric, in.Family,
		in.OnsetWindow, in.OnsetStart, in.OnsetEnd, in.Detector, in.Severity, in.Baseline)
	if !in.Open() {
		fmt.Fprintf(&b, ", cleared window %d", in.ClearWindow)
	}
	if len(in.Bottlenecks) > 0 {
		top := in.Bottlenecks[0]
		fmt.Fprintf(&b, " — top bottleneck %s (%v, %.0f%%)", top.Resource, top.Wait, top.Share*100)
	}
	return b.String()
}

// Report renders an incident table, onset order: the monitor's summary
// view for reports.
func Report(incidents []Incident) string {
	if len(incidents) == 0 {
		return "no incidents\n"
	}
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  #\tresource\tmetric\tdetector\tonset\tclear\tseverity\tbaseline\ttop bottleneck")
	for _, in := range incidents {
		clear := "open"
		if !in.Open() {
			clear = fmt.Sprintf("%d", in.ClearWindow)
		}
		top := "-"
		if len(in.Bottlenecks) > 0 {
			top = in.Bottlenecks[0].Resource
		}
		fmt.Fprintf(tw, "  %d\t%s\t%s\t%s\t%d\t%s\t%.2f\t%.2f\t%s\n",
			in.ID, in.Resource, in.Metric, in.Detector, in.OnsetWindow, clear,
			in.Severity, in.Baseline, top)
	}
	tw.Flush()
	return b.String()
}
