// Trace-metrics fusion: the metrics registry knows which window went
// wrong and the bottleneck attributor names the resource; the tracer
// knows every hop every transaction took. The fused export overlays the
// detected incidents on the span timeline in one Chrome-trace file, and
// trace.SpansInWindow keyed off an incident's window stamps turns "umc0/rd
// saturated in window 41" into the cause-attributed spans of the
// transactions that crossed it.
package anomaly

import (
	"io"

	"repro/internal/trace"
	"repro/internal/units"
)

// Annotations converts incidents to trace annotation-track entries: one
// interval per incident from its onset window's start to its clear stamp
// (open incidents extend to timelineEnd, clamped to at least the onset
// window). The exporter adds instant onset/clear markers per entry.
func Annotations(incs []Incident, timelineEnd units.Time) []trace.Annotation {
	anns := make([]trace.Annotation, 0, len(incs))
	for _, in := range incs {
		end := in.ClearEnd
		if in.Open() {
			end = timelineEnd
			if end < in.OnsetEnd {
				end = in.OnsetEnd
			}
		}
		anns = append(anns, trace.Annotation{
			Name:     in.Resource,
			Start:    in.OnsetStart,
			End:      end,
			Open:     in.Open(),
			Severity: in.Severity,
			Baseline: in.Baseline,
			Detector: in.Detector,
		})
	}
	return anns
}

// WriteFusedTraceEvents writes one Chrome-trace file holding both halves
// of the fused view: the tracer's span timeline plus the incidents as an
// annotation track (onset/clear markers with resource and severity
// args). Open at https://ui.perfetto.dev — the incident intervals sit
// over the spans of the transactions that crossed the congested
// resource. The tracer and the incidents' registry must share one engine
// clock (harness.RunCell with both Observers wires exactly that).
func WriteFusedTraceEvents(w io.Writer, tr *trace.Tracer, incs []Incident) error {
	var end units.Time
	if _, last, ok := tr.TimeRange(); ok {
		end = last
	}
	return tr.WriteTraceEventsAnnotated(w, Annotations(incs, end))
}
