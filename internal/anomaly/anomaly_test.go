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
		metrics.ProbeFunc(func() float64 { return f.cum }))
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
	f, mon := monitored(anomaly.Config{})
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
// At the fixed tuning the band alone would absorb all 40 windows of this
// ramp; Page-Hinkley flags it at window 13, at a rate of 0.21.
func TestPageHinkleyCatchesSlowDrift(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	rates := []float64{0.01, 0.01, 0.01}
	for i := 0; i < 40; i++ {
		rates = append(rates, 0.01+0.02*float64(i)) // slow upward drift
	}
	f.play(rates...)
	f.reg.Stop()
	incs := mon.Incidents()
	if len(incs) == 0 {
		t.Fatal("slow drift never alarmed")
	}
	if incs[0].Detector != anomaly.DetectorPH || incs[0].OnsetWindow != 13 {
		t.Errorf("detector %q at window %d, want %q at 13",
			incs[0].Detector, incs[0].OnsetWindow, anomaly.DetectorPH)
	}
}

// TestDetectorSurvivesWraparound: once the ring wraps and DroppedWindows
// grows, the monitor (which reads each window exactly once, as it is
// harvested) must not desynchronize or double-fire.
func TestDetectorSurvivesWraparound(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	var rates []float64
	for i := 0; i < metrics.MaxWindows+2; i++ { // wrap the ring
		rates = append(rates, 0.01+0.01*float64(i%2))
	}
	rates = append(rates, 5.0, 5.5, 5.2)    // onset past the wrap
	rates = append(rates, 0.01, 0.02, 0.01) // clear
	f.play(rates...)
	f.reg.Stop()

	if f.reg.DroppedWindows() == 0 {
		t.Fatal("test did not wrap the ring")
	}
	incs := mon.Incidents()
	if len(incs) != 1 {
		t.Fatalf("wraparound produced %d incidents, want 1: %+v", len(incs), incs)
	}
	if incs[0].OnsetWindow != metrics.MaxWindows+2 || incs[0].Open() {
		t.Fatalf("incident = %+v, want onset window %d, cleared", incs[0], metrics.MaxWindows+2)
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

// TestMaxIncidentsBounded: onsets past the first 1024 are counted, not
// stored.
func TestMaxIncidentsBounded(t *testing.T) {
	f, mon := monitored(anomaly.Config{})
	// 1025 separate episodes: each opens on the spike and clears after
	// two calm windows.
	rates := []float64{0.01}
	for i := 0; i < 1025; i++ {
		rates = append(rates, 5.0, 0.01, 0.01)
	}
	f.play(rates...)
	f.reg.Stop()
	if n := mon.NumIncidents(); n != 1024 {
		t.Fatalf("stored %d incidents, want 1024", n)
	}
	if n := mon.IncidentsDropped(); n != 1 {
		t.Fatalf("dropped %d onsets, want 1", n)
	}
}
