package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/units"
)

// TestFigure4StatsBottleneckNamesSharedUMC: in the UMC/GMI scenario with
// equal over-subscribing demands, the shared memory channel is where the
// paper says the congestion lives — the attributor must rank it first in
// every harvested window.
func TestFigure4StatsBottleneckNamesSharedUMC(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mustRunCell(t, quick(), "fig4:1:2", Observers{Registry: reg})
	if reg.Total() == 0 {
		t.Fatal("no windows harvested")
	}
	for w := reg.FirstWindow(); w < reg.Total(); w++ {
		ranked := metrics.Bottlenecks(reg, w, 1)
		if len(ranked) == 0 {
			t.Fatalf("window %d: no congestion recorded", w)
		}
		if !strings.HasPrefix(ranked[0].Resource, "umc0") {
			t.Errorf("window %d: top bottleneck = %s (%v), want the shared channel umc0/*",
				w, ranked[0].Resource, ranked[0].Wait)
		}
	}
}

// TestStatsFamiliesInAllFormats: the instrumented cell must report all
// four subsystem families — link, mesh, memsys and pool — and each of
// the three export formats must carry them.
func TestStatsFamiliesInAllFormats(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mustRunCell(t, quick(), "fig4:1:2", Observers{Registry: reg})
	families := map[string]bool{}
	for i := 0; i < reg.NumInstruments(); i++ {
		families[reg.Desc(i).Family] = true
	}
	for _, fam := range []string{"link", "mesh", "memsys", "pool"} {
		if !families[fam] {
			t.Errorf("family %q has no instruments", fam)
		}
	}

	var jsonBuf, omBuf, csvBuf bytes.Buffer
	if err := reg.Dump().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteOpenMetrics(&omBuf, reg); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteCSV(&csvBuf, reg); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"link", "mesh", "memsys", "pool"} {
		if !strings.Contains(jsonBuf.String(), `"family": "`+fam+`"`) {
			t.Errorf("JSON export missing family %q", fam)
		}
		if !strings.Contains(omBuf.String(), `family="`+fam+`"`) {
			t.Errorf("OpenMetrics export missing family %q", fam)
		}
		if !strings.Contains(csvBuf.String(), ","+fam+",") {
			t.Errorf("CSV export missing family %q", fam)
		}
	}
}
