package metrics_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/units"
)

const win = 10 * units.Microsecond

// fixture builds an engine plus a registry with one counter driven by an
// event ticking cum += step every microsecond, and one gauge reporting
// the current tick count.
type fixture struct {
	eng   *sim.Engine
	reg   *metrics.Registry
	cum   float64
	ticks float64
}

func newFixture(t *testing.T, cfg metrics.Config) (*fixture, metrics.ID, metrics.ID) {
	t.Helper()
	f := &fixture{eng: sim.New(1), reg: metrics.New(cfg)}
	c := f.reg.Counter("res0", metrics.MetricBytes, "fam", "bytes", func() float64 { return f.cum })
	g := f.reg.Gauge("res0", metrics.MetricDepth, "fam", "msgs", func() float64 { return f.ticks })
	var tick func()
	tick = func() {
		f.cum += 3
		f.ticks++
		f.eng.After(units.Microsecond, tick)
	}
	// Offset the ticker half a microsecond so ticks never tie with
	// harvest events at window boundaries: each 10 us window holds
	// exactly the ten ticks at 10w+0.5, ..., 10w+9.5 us.
	f.eng.After(500*units.Nanosecond, tick)
	return f, c, g
}

func TestCounterDeltasAndGaugeSamples(t *testing.T) {
	f, c, g := newFixture(t, metrics.Config{Window: win})
	f.reg.Start(f.eng)
	f.eng.RunUntil(3 * win)
	f.reg.Stop()

	if f.reg.Total() != 3 {
		t.Fatalf("Total = %d, want 3", f.reg.Total())
	}
	for w := 0; w < 3; w++ {
		if got := f.reg.Value(c, w); got != 30 {
			t.Errorf("counter window %d = %v, want 30", w, got)
		}
		if got := f.reg.Value(g, w); got != float64((w+1)*10) {
			t.Errorf("gauge window %d = %v, want %d", w, got, (w+1)*10)
		}
		if s, e := f.reg.WindowStart(w), f.reg.WindowEnd(w); s != units.Time(w)*win || e != s+win {
			t.Errorf("window %d bounds [%v,%v), want [%v,%v)", w, s, e, units.Time(w)*win, units.Time(w)*win+win)
		}
	}
}

// TestRingWraparound runs six windows past MaxWindows: the six oldest
// are dropped and every retained window reads back in place.
func TestRingWraparound(t *testing.T) {
	f, c, _ := newFixture(t, metrics.Config{Window: win})
	f.reg.Start(f.eng)
	f.eng.RunUntil((metrics.MaxWindows + 6) * win)
	f.reg.Stop()

	if f.reg.Total() != metrics.MaxWindows+6 {
		t.Fatalf("Total = %d, want %d", f.reg.Total(), metrics.MaxWindows+6)
	}
	if f.reg.FirstWindow() != 6 {
		t.Fatalf("FirstWindow = %d, want 6", f.reg.FirstWindow())
	}
	if f.reg.DroppedWindows() != 6 {
		t.Fatalf("DroppedWindows = %d, want 6", f.reg.DroppedWindows())
	}
	for w := f.reg.FirstWindow(); w < f.reg.Total(); w++ {
		if got := f.reg.Value(c, w); got != 30 {
			t.Errorf("counter window %d = %v, want 30", w, got)
		}
		if s := f.reg.WindowStart(w); s != units.Time(w)*win {
			t.Errorf("window %d start = %v, want %v", w, s, units.Time(w)*win)
		}
	}
}

// TestStartIsOneShot: a registry runs once. A second Start panics while
// it is harvesting and after Stop alike.
func TestStartIsOneShot(t *testing.T) {
	for _, stop := range []bool{false, true} {
		f, _, _ := newFixture(t, metrics.Config{Window: win})
		f.reg.Start(f.eng)
		f.eng.RunUntil(2 * win)
		if stop {
			f.reg.Stop()
			f.eng.RunUntil(4 * win)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second Start (after Stop: %v) did not panic", stop)
				}
			}()
			f.reg.Start(f.eng)
		}()
		if f.reg.Total() != 2 {
			t.Errorf("after Stop: %v, Total = %d, want 2", stop, f.reg.Total())
		}
	}
}

func TestOnHarvestObserver(t *testing.T) {
	f, _, _ := newFixture(t, metrics.Config{Window: win})
	var seen []int
	f.reg.OnHarvest(func() { seen = append(seen, f.reg.Total()-1) })
	f.reg.Start(f.eng)
	f.eng.RunUntil(3 * win)
	f.reg.Stop()
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("observer saw windows %v, want [0 1 2]", seen)
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	f, _, _ := newFixture(t, metrics.Config{Window: win})
	f.reg.Start(f.eng)
	defer func() {
		if recover() == nil {
			t.Fatal("registering after Start did not panic")
		}
	}()
	f.reg.Counter("late", metrics.MetricBytes, "fam", "bytes", func() float64 { return 0 })
}

func TestLookupAndDescs(t *testing.T) {
	f, c, g := newFixture(t, metrics.Config{})
	if id, ok := f.reg.Lookup("res0", metrics.MetricBytes); !ok || id != c {
		t.Fatalf("Lookup counter = (%d,%v), want (%d,true)", id, ok, c)
	}
	if id, ok := f.reg.Lookup("res0", metrics.MetricDepth); !ok || id != g {
		t.Fatalf("Lookup gauge = (%d,%v), want (%d,true)", id, ok, g)
	}
	if _, ok := f.reg.Lookup("nope", metrics.MetricBytes); ok {
		t.Fatal("Lookup of unknown resource succeeded")
	}
	d := f.reg.Desc(int(c))
	if d.Name() != "res0/bytes" || d.Kind != metrics.KindCounter || d.Family != "fam" {
		t.Fatalf("counter desc = %+v", d)
	}
	if f.reg.Desc(int(g)).Kind != metrics.KindGauge {
		t.Fatal("gauge desc kind mismatch")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []metrics.Kind{metrics.KindCounter, metrics.KindGauge} {
		got, ok := metrics.KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = (%v,%v), want (%v,true)", k.String(), got, ok, k)
		}
	}
	if _, ok := metrics.KindFromString("nope"); ok {
		t.Error("KindFromString accepted garbage")
	}
}

// harvested builds a registry with three windows of data for the export
// and report tests.
func harvested(t *testing.T) (*fixture, *metrics.Registry) {
	t.Helper()
	f, _, _ := newFixture(t, metrics.Config{Window: win})
	f.reg.Start(f.eng)
	f.eng.RunUntil(3 * win)
	f.reg.Stop()
	return f, f.reg
}

func TestDumpJSONRoundTrip(t *testing.T) {
	_, reg := harvested(t)
	d := reg.Dump()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", d, back)
	}
	// The loaded dump must serve the Source interface identically.
	if back.Total() != reg.Total() || back.Window() != reg.Window() {
		t.Fatalf("loaded dump shape: total %d window %v", back.Total(), back.Window())
	}
	for w := 0; w < reg.Total(); w++ {
		for i := 0; i < reg.NumInstruments(); i++ {
			if lv, rv := back.Value(metrics.ID(i), w), reg.Value(metrics.ID(i), w); lv != rv {
				t.Fatalf("instrument %d window %d: loaded %v vs live %v", i, w, lv, rv)
			}
		}
	}
}

func TestReadJSONRejectsCorruptDumps(t *testing.T) {
	_, reg := harvested(t)
	d := reg.Dump()
	d.Instruments[0].Samples = d.Instruments[0].Samples[:1] // wrong length
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ReadJSON(&buf); err == nil {
		t.Fatal("ReadJSON accepted a dump with mismatched sample counts")
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	f, _, _ := newFixture(t, metrics.Config{Window: win})
	// A second bytes counter registered after the depth gauge: its
	// samples must join the chiplet_bytes family, not reopen it.
	f.reg.Counter("res1", metrics.MetricBytes, "fam", "bytes", func() float64 { return 2 * f.cum })
	f.reg.Start(f.eng)
	f.eng.RunUntil(3 * win)
	f.reg.Stop()
	var buf bytes.Buffer
	if err := metrics.WriteOpenMetrics(&buf, f.reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE chiplet_bytes counter",
		"# UNIT chiplet_bytes bytes",
		"# TYPE chiplet_depth gauge",
		`chiplet_bytes_total{resource="res0",family="fam"}`,
		`chiplet_bytes_total{resource="res1",family="fam"}`,
		`chiplet_depth{resource="res0",family="fam"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q", want)
		}
	}
	// One TYPE header per metric family, with every member under it.
	if got := strings.Count(out, "# TYPE chiplet_bytes counter"); got != 1 {
		t.Errorf("chiplet_bytes TYPE header appears %d times, want 1", got)
	}
	if strings.Index(out, `chiplet_bytes_total{resource="res1"`) > strings.Index(out, "# TYPE chiplet_depth gauge") {
		t.Error("res1's bytes samples fall outside the chiplet_bytes family")
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("OpenMetrics output does not end with # EOF")
	}
	// Counters are re-accumulated: the last sample must be the sum of the
	// three 30-unit windows.
	if !strings.Contains(out, "} 90 ") {
		t.Error("cumulative counter did not reach 90")
	}
}

func TestOnHarvestObserverChain(t *testing.T) {
	f, _, _ := newFixture(t, metrics.Config{Window: win})
	var order []string
	f.reg.OnHarvest(func() { order = append(order, "detector") })
	f.reg.OnHarvest(func() { order = append(order, "renderer") })
	f.reg.Start(f.eng)
	f.eng.RunUntil(win)
	f.reg.Stop()
	if !reflect.DeepEqual(order, []string{"detector", "renderer"}) {
		t.Fatalf("observers ran in order %v, want attach order", order)
	}
}

func TestWriteCSV(t *testing.T) {
	_, reg := harvested(t)
	var buf bytes.Buffer
	if err := metrics.WriteCSV(&buf, reg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if want := 1 + reg.Total()*reg.NumInstruments(); len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	if lines[0] != "window,start_us,end_us,resource,family,metric,kind,unit,value" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "res0,fam,bytes,counter,bytes,30") {
		t.Fatalf("CSV first row = %q", lines[1])
	}
}
