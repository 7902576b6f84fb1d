package metrics_test

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

// synthetic builds one harvested window with known congestion signals:
// "hot" (80% of the wait, half-utilized, depth 7), "warm" (20%), "edge"
// (no wait but 4 refusals) and "cold" (no signal at all).
func synthetic(t *testing.T) *metrics.Registry {
	t.Helper()
	eng := sim.New(1)
	reg := metrics.New(metrics.Config{Window: 10 * units.Microsecond})
	var hotWait, warmWait, hotBusy, edgeRefused, hotDepth float64
	reg.Counter("hot", metrics.MetricWait, "link", "ps", metrics.ProbeFunc(func() float64 { return hotWait }))
	reg.Counter("hot", metrics.MetricBusy, "link", "ps", metrics.ProbeFunc(func() float64 { return hotBusy }))
	reg.Gauge("hot", metrics.MetricDepth, "link", "msgs", metrics.ProbeFunc(func() float64 { return hotDepth }))
	reg.Counter("warm", metrics.MetricWait, "pool", "ps", metrics.ProbeFunc(func() float64 { return warmWait }))
	reg.Counter("edge", metrics.MetricRefused, "link", "msgs", metrics.ProbeFunc(func() float64 { return edgeRefused }))
	reg.Counter("cold", metrics.MetricWait, "link", "ps", metrics.ProbeFunc(func() float64 { return 0 }))
	reg.Start(eng)
	eng.After(5*units.Microsecond, func() {
		hotWait = 8000
		warmWait = 2000
		hotBusy = float64(5 * units.Microsecond)
		edgeRefused = 4
		hotDepth = 7
	})
	eng.RunUntil(10 * units.Microsecond)
	reg.Stop()
	if reg.Total() != 1 {
		t.Fatalf("fixture harvested %d windows, want 1", reg.Total())
	}
	return reg
}

func TestBottleneckRanking(t *testing.T) {
	reg := synthetic(t)
	ranked := metrics.Bottlenecks(reg, 0, 4) // every resource of the fixture
	if len(ranked) != 3 {
		t.Fatalf("ranked %d resources, want 3 (cold omitted): %+v", len(ranked), ranked)
	}
	hot, warm, edge := ranked[0], ranked[1], ranked[2]
	if hot.Resource != "hot" || warm.Resource != "warm" || edge.Resource != "edge" {
		t.Fatalf("order = %s,%s,%s, want hot,warm,edge", hot.Resource, warm.Resource, edge.Resource)
	}
	if hot.Wait != 8000 || hot.Share != 0.8 || hot.Util != 0.5 || hot.Depth != 7 {
		t.Errorf("hot = %+v, want wait 8000, share 0.8, util 0.5, depth 7", hot)
	}
	if warm.Share != 0.2 || warm.Family != "pool" {
		t.Errorf("warm = %+v, want share 0.2, family pool", warm)
	}
	if edge.Wait != 0 || edge.Refused != 4 {
		t.Errorf("edge = %+v, want refused 4 with zero wait", edge)
	}
}

func TestBottleneckTopK(t *testing.T) {
	reg := synthetic(t)
	if got := metrics.Bottlenecks(reg, 0, 1); len(got) != 1 || got[0].Resource != "hot" {
		t.Fatalf("top-1 = %+v, want just hot", got)
	}
}

func TestRenderWindowNamesBottleneck(t *testing.T) {
	reg := synthetic(t)
	out := metrics.RenderWindow(reg, 0, 2)
	for _, want := range []string{"window 0", "hot", "80.0%", "congestion-wait 10ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderWindow missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "edge") {
		t.Errorf("RenderWindow shows rank 3 despite k=2:\n%s", out)
	}
}

func TestBottleneckReportAndFamilySummary(t *testing.T) {
	reg := synthetic(t)
	rep := metrics.BottleneckReport(reg, 1)
	if !strings.Contains(rep, "hot (8ns, 80%)") {
		t.Errorf("report does not name the top bottleneck:\n%s", rep)
	}
	sum := metrics.FamilySummary(reg)
	if !strings.Contains(sum, "link") || !strings.Contains(sum, "pool") {
		t.Errorf("family summary missing families:\n%s", sum)
	}
}
