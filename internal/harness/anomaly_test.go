package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestFigure4MonitoredCellNamesSharedUMC: in the UMC/GMI scenario with
// equal over-subscribing demands, congestion on the shared memory
// channel is steady by the time the registry starts (after convergence),
// so the zero-primed detector must raise an incident naming umc0's read
// channel at the first harvested window — and the linked bottleneck
// ranking must agree.
func TestFigure4MonitoredCellNamesSharedUMC(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	mustRunCell(t, quick(), "fig4:1:2", Observers{Registry: reg})
	incs := mon.Incidents()
	if len(incs) == 0 {
		t.Fatal("over-subscribed shared-UMC cell raised no incidents")
	}
	var umc *anomaly.Incident
	for i := range incs {
		if strings.HasPrefix(incs[i].Resource, "umc0") {
			umc = &incs[i]
			break
		}
	}
	if umc == nil {
		t.Fatalf("no incident names umc0/*: %v", anomaly.Report(incs))
	}
	if umc.OnsetWindow != reg.FirstWindow() {
		t.Errorf("umc0 incident onset at window %d, want the first harvested window %d",
			umc.OnsetWindow, reg.FirstWindow())
	}
	if !umc.Open() {
		t.Errorf("steady congestion cleared at window %d, want open through the run", umc.ClearWindow)
	}
	if len(umc.Bottlenecks) == 0 || !strings.HasPrefix(umc.Bottlenecks[0].Resource, "umc0") {
		t.Errorf("incident's linked ranking = %+v, want umc0/* first", umc.Bottlenecks)
	}
	// Severity refreshes arrive mid-incident as each window is harvested:
	// the peak stamps must point inside the run, at the end of the window
	// whose sample set Severity.
	if umc.PeakPS == 0 || umc.PeakWindow < umc.OnsetWindow {
		t.Fatalf("peak stamps missing: window %d at %v", umc.PeakWindow, umc.PeakPS)
	}
	if umc.PeakPS != reg.WindowEnd(umc.PeakWindow) {
		t.Errorf("PeakPS = %v, want window %d's end %v", umc.PeakPS, umc.PeakWindow, reg.WindowEnd(umc.PeakWindow))
	}
}

// TestFigure4FusedCellWindowVerdict runs tracer and registry on one
// engine and keys the flight recorder off the umc0/rd incident's onset
// window: the spans SpansInWindow returns are exactly the ones a
// brute-force EachSpan overlap filter selects, they are non-empty, and
// they include queueing on the congested umc0/rd hop itself.
func TestFigure4FusedCellWindowVerdict(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	tr := trace.New(trace.Config{})
	mustRunCell(t, quick(), "fig4:1:2", Observers{Tracer: tr, Registry: reg})
	incs := mon.Incidents()
	var umc *anomaly.Incident
	for i := range incs {
		if incs[i].Resource == "umc0/rd" {
			umc = &incs[i]
			break
		}
	}
	if umc == nil {
		t.Fatalf("no umc0/rd incident to fuse: %v", anomaly.Report(incs))
	}

	start, end := umc.OnsetStart, umc.OnsetEnd
	var spans []trace.Span
	n := tr.SpansInWindow(start, end, func(s trace.Span) { spans = append(spans, s) })
	if n == 0 || n != len(spans) {
		t.Fatalf("onset window holds %d spans (%d collected), want > 0", n, len(spans))
	}

	// The flight recorder's verdict: brute-force overlap filter over the
	// whole ring must select exactly the same span set, in order.
	var want []trace.Span
	tr.EachSpan(func(s trace.Span) {
		if s.End > start && s.Start < end {
			want = append(want, s)
		}
	})
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("window spans diverge from the recorder's verdict: %d vs %d spans",
			len(spans), len(want))
	}
	// Every selected span genuinely overlaps the window.
	for _, s := range spans {
		if s.End <= start || s.Start >= end {
			t.Fatalf("span [%v,%v) outside onset window [%v,%v)", s.Start, s.End, start, end)
		}
	}

	// The congested resource's own hop appears among the window's spans
	// with queueing time — the metrics-side name keys into the trace-side
	// hop.
	hops := tr.Hops()
	sawUMCWait := false
	for _, s := range spans {
		if hops[s.Hop].Name == "umc0/rd" && s.Cause == trace.CauseQueued {
			sawUMCWait = true
			break
		}
	}
	if !sawUMCWait {
		t.Error("onset window has no queueing span on the umc0/rd hop")
	}
}

// TestFusedTraceFileAcceptance is the tentpole's end-to-end check: one
// Chrome-trace file holding both the span timeline and the incident
// annotation track, where the umc0/rd onset marker lands inside the
// window whose spans show the queued-time spike.
func TestFusedTraceFileAcceptance(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	tr := trace.New(trace.Config{})
	mustRunCell(t, quick(), "fig4:1:2", Observers{Tracer: tr, Registry: reg})
	var umc *anomaly.Incident
	for _, in := range mon.Incidents() {
		if in.Resource == "umc0/rd" {
			in := in
			umc = &in
			break
		}
	}
	if umc == nil {
		t.Fatalf("no umc0/rd incident: %v", anomaly.Report(mon.Incidents()))
	}

	var buf bytes.Buffer
	if err := anomaly.WriteFusedTraceEvents(&buf, tr, mon.Incidents()); err != nil {
		t.Fatal(err)
	}
	ld, err := trace.ReadTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("fused file does not load: %v", err)
	}
	if len(ld.Spans) == 0 || len(ld.Annotations) == 0 {
		t.Fatalf("fused file holds %d spans, %d annotations; want both", len(ld.Spans), len(ld.Annotations))
	}

	var ann *trace.Annotation
	for i := range ld.Annotations {
		if ld.Annotations[i].Name == "umc0/rd" {
			ann = &ld.Annotations[i]
			break
		}
	}
	if ann == nil {
		t.Fatalf("fused file has no umc0/rd annotation: %+v", ld.Annotations)
	}
	// The onset marker (the annotation's start) lands inside the onset
	// window, and the annotation carries the detector's verdict.
	if ann.Start != umc.OnsetStart || ann.Start >= umc.OnsetEnd {
		t.Errorf("onset marker at %v, want inside [%v,%v)", ann.Start, umc.OnsetStart, umc.OnsetEnd)
	}
	if ann.Severity != umc.Severity || ann.Detector != umc.Detector || ann.Open != umc.Open() {
		t.Errorf("annotation args = %+v, incident = %+v", ann, umc)
	}

	// The same file's spans show the spike: queued time on the umc0/rd hop
	// inside the onset window.
	win := ld.Window(umc.OnsetStart, umc.OnsetEnd)
	var queued units.Time
	for _, s := range win.Spans {
		if int(s.Hop) < len(ld.Hops) && ld.Hops[s.Hop].Name == "umc0/rd" && s.Cause == trace.CauseQueued {
			from, to := s.Start, s.End
			if from < umc.OnsetStart {
				from = umc.OnsetStart
			}
			if to > umc.OnsetEnd {
				to = umc.OnsetEnd
			}
			queued += to - from
		}
	}
	if queued == 0 {
		t.Error("onset window's spans show no queued time on the umc0/rd hop")
	}
}
