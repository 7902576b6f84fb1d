// Incident rendering and interchange: the one-line live form the
// examples print at onset/clear, the incident table, and the JSON feed
// (round-trippable, so cmd/chiplettrace -incidents can re-read it).
package anomaly

import (
	"encoding/json"
	"fmt"
	"io"
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

// WriteJSON writes incidents as an indented JSON array — the incidents
// feed's wire form.
func WriteJSON(w io.Writer, incidents []Incident) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if incidents == nil {
		incidents = []Incident{}
	}
	return enc.Encode(incidents)
}

// ReadJSON loads an incident list written by WriteJSON.
func ReadJSON(r io.Reader) ([]Incident, error) {
	var out []Incident
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("anomaly: decoding incidents: %w", err)
	}
	return out, nil
}
