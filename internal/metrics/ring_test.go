package metrics

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestHarvestRingBounded harvests 2×MaxWindows windows. The growth steps
// must keep every window readable in place; once the ring has grown to
// MaxWindows and wrapped, a harvest must not allocate at all and the ring
// must hold exactly MaxWindows windows.
func TestHarvestRingBounded(t *testing.T) {
	const (
		instruments = 64
		window      = units.Microsecond
	)
	eng := sim.New(1)
	r := New(Config{Window: window})
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
	if r.slots != firstSlots {
		t.Fatalf("ring starts at %d windows, want %d", r.slots, firstSlots)
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

	eng.RunFor(MaxWindows * window)
	if r.Total() != MaxWindows || r.DroppedWindows() != 0 || r.slots != MaxWindows {
		t.Fatalf("after %d windows: total %d, dropped %d, ring %d slots",
			MaxWindows, r.Total(), r.DroppedWindows(), r.slots)
	}
	check()
	// TotalAlloc is process-wide. Hold one P for the measured stretch, as
	// testing.AllocsPerRun does, so the scheduler cannot start (and
	// heap-allocate) a new M while it runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng.RunFor(MaxWindows * window)
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew != 0 {
		t.Errorf("full ring allocated %d bytes over %d more windows", grew, MaxWindows)
	}
	if r.slots != MaxWindows || len(r.series) != MaxWindows*instruments {
		t.Errorf("ring grew past MaxWindows: %d slots, %d samples", r.slots, len(r.series))
	}
	if r.Total() != 2*MaxWindows || r.FirstWindow() != MaxWindows || r.DroppedWindows() != MaxWindows {
		t.Fatalf("total %d first %d dropped %d, want %d/%d/%d",
			r.Total(), r.FirstWindow(), r.DroppedWindows(), 2*MaxWindows, MaxWindows, MaxWindows)
	}
	check()
}

// TestStartAllocationBounded: Start must allocate only the first
// firstSlots windows of every instrument, plus O(instruments) for the
// counter baselines, and harvest must then double the ring window by
// window until it reaches MaxWindows.
func TestStartAllocationBounded(t *testing.T) {
	const (
		instruments = 512
		window      = units.Microsecond
	)
	eng := sim.New(1)
	r := New(Config{Window: window})
	for i := 0; i < instruments; i++ {
		r.Counter("res", "c", "fam", "u", func() float64 { return 1 })
	}
	// TotalAlloc is process-wide; hold one P as TestHarvestRingBounded does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.Start(eng)
	runtime.ReadMemStats(&m1)
	limit := uint64(firstSlots*instruments*8 + instruments*8 + 4096)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > limit {
		t.Errorf("Start allocated %d bytes for %d instruments, more than %d (%d windows)",
			got, instruments, limit, firstSlots)
	}

	var want []int
	for s := firstSlots; ; s = min(2*s, MaxWindows) {
		want = append(want, s)
		if s == MaxWindows {
			break
		}
	}
	got := []int{r.slots}
	for w := 1; w <= MaxWindows; w++ {
		eng.RunFor(window)
		if r.Total() != w {
			t.Fatalf("after %d windows Total = %d", w, r.Total())
		}
		if n := r.slots; n != got[len(got)-1] {
			got = append(got, n)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ring sizes %v, want doubling %v", got, want)
	}
	if len(r.series) != MaxWindows*instruments || r.DroppedWindows() != 0 {
		t.Fatalf("ring holds %d samples, dropped %d", len(r.series), r.DroppedWindows())
	}
}
