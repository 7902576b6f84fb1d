package metrics

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestHarvestRingBounded harvests 2×Cap windows from a registry whose Cap
// is not a power-of-two multiple of the initial ring, so the last growth
// step is clipped. The growth steps must keep every window readable in
// place; once the ring has grown to Cap and wrapped, a harvest must not
// allocate at all and the ring must hold exactly Cap windows.
func TestHarvestRingBounded(t *testing.T) {
	const (
		capWindows  = 300
		instruments = 64
		window      = units.Microsecond
	)
	eng := sim.New(1)
	r := New(Config{Window: window, Cap: capWindows})
	// Instrument i reports i*(ticks+1), with four ticks per window.
	ticks := 0
	for i := 0; i < instruments; i++ {
		i := float64(i)
		probe := func() float64 { return i * float64(ticks+1) }
		if int(i)%2 == 0 {
			r.Counter("res", "c", "fam", "u", probe)
		} else {
			r.Gauge("res", "g", "fam", "u", probe)
		}
	}
	var tick func()
	tick = func() {
		ticks++
		eng.After(window/4, tick)
	}
	eng.After(window/8, tick)
	r.Start(eng)
	if got := len(r.starts); got != firstSlots {
		t.Fatalf("ring starts at %d windows, want %d", got, firstSlots)
	}

	// check reads back every retained window: counters record the
	// per-window delta, gauges the value at the window's end.
	check := func() {
		t.Helper()
		for w := r.FirstWindow(); w < r.Total(); w++ {
			if s, e := r.WindowStart(w), r.WindowEnd(w); s != units.Time(w)*window || e != s+window {
				t.Fatalf("window %d spans [%v, %v)", w, s, e)
			}
			for id := 0; id < instruments; id++ {
				want := float64(id) * 4
				if id%2 == 1 {
					want = float64(id) * float64(4*(w+1)+1)
				}
				if got := r.Value(ID(id), w); got != want {
					t.Fatalf("window %d instrument %d = %v, want %v", w, id, got, want)
				}
			}
		}
	}

	eng.RunFor(capWindows * window)
	if r.Total() != capWindows || r.DroppedWindows() != 0 || len(r.starts) != capWindows {
		t.Fatalf("after %d windows: total %d, dropped %d, ring %d slots",
			capWindows, r.Total(), r.DroppedWindows(), len(r.starts))
	}
	check()
	// TotalAlloc is process-wide. Hold one P for the measured stretch, as
	// testing.AllocsPerRun does, so the scheduler cannot start (and
	// heap-allocate) a new M while it runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.RunFor(capWindows * window)
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew != 0 {
		t.Errorf("full ring allocated %d bytes over %d more windows", grew, capWindows)
	}
	if len(r.starts) != capWindows || len(r.ends) != capWindows || len(r.series) != capWindows*instruments {
		t.Errorf("ring grew past Cap: %d starts, %d ends, %d samples", len(r.starts), len(r.ends), len(r.series))
	}
	if r.Total() != 2*capWindows || r.FirstWindow() != capWindows || r.DroppedWindows() != capWindows {
		t.Fatalf("total %d first %d dropped %d, want %d/%d/%d",
			r.Total(), r.FirstWindow(), r.DroppedWindows(), 2*capWindows, capWindows, capWindows)
	}
	check()
}
