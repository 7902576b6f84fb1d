package anomaly_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

const win = 10 * units.Microsecond

// fixture drives one wait_ps counter whose per-window rate the test
// script controls: rate[w] is the normalized rate (average waiters) the
// detector should observe in window w.
type fixture struct {
	eng *sim.Engine
	reg *metrics.Registry
	cum float64 // cumulative wait_ps the probe reports
}

func newFixture(cfg metrics.Config) *fixture {
	f := &fixture{eng: sim.New(1), reg: metrics.New(cfg)}
	f.reg.Counter("umc0/rd", metrics.MetricWait, "memsys", "ps",
		func() float64 { return f.cum })
	return f
}

// play advances the simulation one window per rate entry, accumulating
// rate*span of wait time spread over the window (one bump mid-window).
func (f *fixture) play(rates ...float64) {
	w := f.reg.Window()
	for _, r := range rates {
		end := f.eng.Now() + w
		f.eng.At(f.eng.Now()+w/2, func() { f.cum += r * float64(w) })
		f.eng.RunUntil(end)
	}
}

func monitored(cfg anomaly.Config) (*fixture, *anomaly.Monitor) {
	f := newFixture(metrics.Config{Window: win})
	mon := anomaly.Attach(f.reg, cfg)
	f.reg.Start(f.eng)
	return f, mon
}

func TestQuietSignalNeverFires(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	// Small noise below the MinRate floor: never anomalous, even though
	// the zero-primed band starts at width zero.
	f.play(0.01, 0.02, 0.01, 0.03, 0.02, 0.01, 0.02, 0.01)
	f.reg.Stop()
	if n := mon.NumIncidents(); n != 0 {
		t.Fatalf("quiet signal raised %d incidents: %v", n, mon.Incidents())
	}
	if mon.NumWatched() != 1 {
		t.Fatalf("NumWatched = %d, want 1", mon.NumWatched())
	}
}

func TestOnsetClearLifecycle(t *testing.T) {
	f, mon := monitored(anomaly.Config{Clear: 2})
	var events []string
	mon.OnIncident(func(in anomaly.Incident) {
		state := "clear"
		if in.Open() {
			state = "onset"
		}
		events = append(events, state)
	})
	// Calm baseline, then a congestion episode, then calm again.
	f.play(0.01, 0.02, 0.01, 5.0, 6.0, 5.5, 0.01, 0.02, 0.01)
	f.reg.Stop()

	incs := mon.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1: %v", len(incs), incs)
	}
	in := incs[0]
	if in.Resource != "umc0/rd" || in.Metric != metrics.MetricWait || in.Family != "memsys" {
		t.Errorf("incident identity = %s/%s (%s)", in.Resource, in.Metric, in.Family)
	}
	if in.OnsetWindow != 3 {
		t.Errorf("onset window = %d, want 3", in.OnsetWindow)
	}
	if in.OnsetStart != 3*win || in.OnsetEnd != 4*win {
		t.Errorf("onset bounds [%v,%v), want [%v,%v)", in.OnsetStart, in.OnsetEnd, 3*win, 4*win)
	}
	// Clear needs 2 consecutive calm windows: 6 and 7.
	if in.Open() || in.ClearWindow != 7 {
		t.Errorf("clear window = %d (open=%v), want 7", in.ClearWindow, in.Open())
	}
	if in.Severity < 6.0 || in.Severity > 6.1 {
		t.Errorf("severity = %v, want the peak rate ~6.0", in.Severity)
	}
	if in.Detector != anomaly.DetectorEWMA && in.Detector != anomaly.DetectorBoth {
		t.Errorf("detector = %q, want ewma or ewma+ph", in.Detector)
	}
	// The linked bottleneck ranking must name the congested resource.
	if len(in.Bottlenecks) == 0 || in.Bottlenecks[0].Resource != "umc0/rd" {
		t.Errorf("onset bottlenecks = %+v, want umc0/rd first", in.Bottlenecks)
	}
	if !reflect.DeepEqual(events, []string{"onset", "clear"}) {
		t.Errorf("OnIncident events = %v, want [onset clear]", events)
	}
}

// TestBaselineFrozenWhileOpen: a long plateau must stay one incident —
// the EWMA baseline must not adapt to the anomalous level and silently
// clear (then re-fire) mid-episode.
func TestBaselineFrozenWhileOpen(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	rates := []float64{0.01, 0.02, 0.01}
	for i := 0; i < 30; i++ {
		rates = append(rates, 5.0) // long saturated plateau
	}
	f.play(rates...)
	f.reg.Stop()
	incs := mon.Incidents()
	if len(incs) != 1 {
		t.Fatalf("plateau split into %d incidents, want 1", len(incs))
	}
	if !incs[0].Open() {
		t.Fatalf("incident cleared mid-plateau at window %d", incs[0].ClearWindow)
	}
	if incs[0].Baseline > 0.1 {
		t.Errorf("frozen baseline = %v, want the pre-onset calm level", incs[0].Baseline)
	}
}

// TestPageHinkleyCatchesSlowDrift: a ramp slow enough to stay inside the
// adapting EWMA band must still alarm via the Page-Hinkley accumulator.
func TestPageHinkleyCatchesSlowDrift(t *testing.T) {
	// Wide EWMA band (huge K) so only PH can fire.
	f, mon := monitored(anomaly.Config{K: 1e9, PHDelta: 0.01, PHLambda: 0.5})
	rates := []float64{0.01, 0.01, 0.01}
	for i := 0; i < 40; i++ {
		rates = append(rates, 0.01+0.05*float64(i)) // slow upward drift
	}
	f.play(rates...)
	f.reg.Stop()
	incs := mon.Incidents()
	if len(incs) == 0 {
		t.Fatal("slow drift never alarmed")
	}
	if incs[0].Detector != anomaly.DetectorPH {
		t.Errorf("detector = %q, want %q", incs[0].Detector, anomaly.DetectorPH)
	}
}

// TestDetectorSurvivesRestart: a Registry Stop/Start restart produces
// one short window; normalization by the actual window span means the
// detectors see the same rate and must neither fire a spurious onset nor
// clear an open incident, and an episode spanning the gap stays one
// incident.
func TestDetectorSurvivesRestart(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	f.play(0.01, 0.02, 5.0, 5.5) // onset at window 2, still open
	f.reg.Stop()
	// Pending tick fires as a no-op during the gap; congestion continues.
	f.eng.RunFor(2*win + 5*units.Microsecond)
	f.reg.Start(f.eng)
	f.play(5.2, 5.1) // same episode after the restart
	f.reg.Stop()

	incs := mon.Incidents()
	if len(incs) != 1 {
		t.Fatalf("restart split the episode into %d incidents: %+v", len(incs), incs)
	}
	if !incs[0].Open() || incs[0].OnsetWindow != 2 {
		t.Fatalf("incident = %+v, want still open with onset window 2", incs[0])
	}

	// And a calm restart window must not fake a clear: severity kept
	// accumulating across the gap.
	if incs[0].Severity < 5.5 {
		t.Errorf("severity = %v, want >= 5.5 (peak before the gap)", incs[0].Severity)
	}
}

// TestRestartShortWindowNoFalseOnset: the first window after a restart
// can be shorter than the nominal interval; a calm signal normalized
// over that short span must not trip the detector.
func TestRestartShortWindowNoFalseOnset(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	f.play(0.01, 0.02, 0.01)
	f.reg.Stop()
	f.eng.RunFor(win / 2)
	f.reg.Start(f.eng) // pending tick resumes: short window
	f.play(0.02, 0.01, 0.02)
	f.reg.Stop()
	if n := mon.NumIncidents(); n != 0 {
		t.Fatalf("restart raised %d spurious incidents: %+v", n, mon.Incidents())
	}
}

// TestDetectorSurvivesWraparound: once the ring wraps and DroppedWindows
// grows, the monitor (which reads each window exactly once, as it is
// harvested) must not desynchronize or double-fire.
func TestDetectorSurvivesWraparound(t *testing.T) {
	f := newFixture(metrics.Config{Window: win, Cap: 4})
	mon := anomaly.Attach(f.reg, anomaly.Config{})
	f.reg.Start(f.eng)
	rates := []float64{0.01, 0.02, 0.01, 0.02, 0.01, 0.02} // wrap the 4-slot ring
	rates = append(rates, 5.0, 5.5, 5.2)                   // onset well past the wrap
	rates = append(rates, 0.01, 0.02, 0.01)                // clear
	f.play(rates...)
	f.reg.Stop()

	if f.reg.DroppedWindows() == 0 {
		t.Fatal("test did not wrap the ring")
	}
	incs := mon.Incidents()
	if len(incs) != 1 {
		t.Fatalf("wraparound produced %d incidents, want 1: %+v", len(incs), incs)
	}
	if incs[0].OnsetWindow != 6 || incs[0].Open() {
		t.Fatalf("incident = %+v, want onset window 6, cleared", incs[0])
	}
}

// TestSteadyCongestionFiresAtFirstWindow: congestion already present at
// the first harvested window is an onset at that window — the zero-primed
// baseline contract the Figure 4 steady-state cells rely on.
func TestSteadyCongestionFiresAtFirstWindow(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	f.play(4.0, 4.1, 4.0)
	f.reg.Stop()
	incs := mon.Incidents()
	if len(incs) != 1 || incs[0].OnsetWindow != 0 {
		t.Fatalf("incidents = %+v, want one with onset window 0", incs)
	}
}

func TestRenderAndReport(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	f.play(0.01, 5.0, 5.5, 0.01, 0.02)
	f.reg.Stop()
	incs := mon.Incidents()
	line := anomaly.RenderIncident(incs[0])
	for _, want := range []string{"umc0/rd", "wait_ps", "onset window 1", "top bottleneck umc0/rd"} {
		if !strings.Contains(line, want) {
			t.Errorf("RenderIncident missing %q in %q", want, line)
		}
	}
	rep := anomaly.Report(incs)
	if !strings.Contains(rep, "umc0/rd") || !strings.Contains(rep, "ewma") {
		t.Errorf("Report missing fields:\n%s", rep)
	}
	if got := anomaly.Report(nil); got != "no incidents\n" {
		t.Errorf("empty report = %q", got)
	}
}

// TestMaxIncidentsBounded: onsets past the cap are counted, not stored.
func TestMaxIncidentsBounded(t *testing.T) {
	f, mon := monitored(anomaly.Config{MaxIncidents: 1, Clear: 1})
	// Two separate episodes; the second onset must be dropped.
	f.play(0.01, 5.0, 0.01, 0.02, 6.0, 0.01)
	f.reg.Stop()
	if n := mon.NumIncidents(); n != 1 {
		t.Fatalf("stored %d incidents, want 1", n)
	}
	if mon.IncidentsDropped() == 0 {
		t.Fatal("dropped onset not counted")
	}
}

// TestGaugeWatched: gauges are watched unnormalized.
func TestGaugeWatched(t *testing.T) {
	f := &fixture{eng: sim.New(1), reg: metrics.New(metrics.Config{Window: win})}
	depth := 0.0
	f.reg.Gauge("pool0", metrics.MetricDepth, "pool", "waiters",
		func() float64 { return depth })
	mon := anomaly.Attach(f.reg, anomaly.Config{Metrics: []string{metrics.MetricDepth}, MinRate: 2})
	f.reg.Start(f.eng)
	f.eng.RunFor(3 * win)
	depth = 40
	f.eng.RunFor(2 * win)
	f.reg.Stop()
	incs := mon.Incidents()
	if len(incs) != 1 || incs[0].OnsetWindow != 3 || incs[0].Resource != "pool0" {
		t.Fatalf("gauge incidents = %+v, want one at window 3 on pool0", incs)
	}
}
