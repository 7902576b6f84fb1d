package router

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func cfg4x2() Config {
	return Config{
		Width: 4, Height: 2,
		LinkCapacity: units.GBps(32),
		HopLatency:   7 * units.Nanosecond,
		QueueDepth:   16,
	}
}

func TestUnloadedLatencyIsHopCount(t *testing.T) {
	eng := sim.New(1)
	m := New(eng, cfg4x2())
	var got units.Time
	src, dst := topology.Coord{X: 0, Y: 0}, topology.Coord{X: 3, Y: 1}
	m.Route(src, dst, units.CacheLine, nil)
	eng.Run()
	got = m.Latency().Mean()
	// 4 hops (3 X + 1 Y): 4 x (7 ns + 2 ns serialization) = 36 ns.
	hops := units.Time(4)
	want := hops*7*units.Nanosecond + hops*units.GBps(32).TimeToSend(units.CacheLine)
	if got != want {
		t.Errorf("unloaded latency = %v, want %v", got, want)
	}
	if m.Hops() != 4 || m.Delivered() != 1 {
		t.Errorf("hops=%d delivered=%d", m.Hops(), m.Delivered())
	}
}

func TestXYRoutingIsMinimalWhenUnloaded(t *testing.T) {
	eng := sim.New(2)
	m := New(eng, cfg4x2())
	pairs := 0
	for x := 0; x < 4; x++ {
		for y := 0; y < 2; y++ {
			src := topology.Coord{X: 0, Y: 0}
			dst := topology.Coord{X: x, Y: y}
			if src == dst {
				continue
			}
			m.Route(src, dst, units.CacheLine, nil)
			eng.Run()
			pairs++
			wantHops := uint64(x + y)
			if m.Hops() != wantHops {
				t.Errorf("to %v: hops = %d, want %d", dst, m.Hops(), wantHops)
			}
			m.ResetStats()
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs exercised")
	}
}

// drive injects uniform-random traffic at the offered load for a window
// and reports achieved bandwidth and mean latency.
func drive(t *testing.T, offered units.Bandwidth, window units.Time) (units.Bandwidth, units.Time, *Mesh) {
	t.Helper()
	eng := sim.New(7)
	m := New(eng, cfg4x2())
	rng := sim.NewRNG(99)
	gap := units.Interval(units.CacheLine, offered)
	inFlight := 0
	var inject func()
	inject = func() {
		// Bound in-flight messages: an open loop at over-saturating load
		// would otherwise accumulate work (and events) without limit.
		if inFlight >= 512 {
			// Saturated: pause injection instead of spinning the event
			// calendar at the (tiny) inter-arrival gap.
			eng.After(50*units.Nanosecond, inject)
			return
		}
		src := topology.Coord{X: rng.Intn(4), Y: rng.Intn(2)}
		dst := topology.Coord{X: rng.Intn(4), Y: rng.Intn(2)}
		for dst == src {
			dst = topology.Coord{X: rng.Intn(4), Y: rng.Intn(2)}
		}
		inFlight++
		m.Route(src, dst, units.CacheLine, func() { inFlight-- })
		d := units.Time(math.Round(float64(gap) * rng.ExpFloat64()))
		if d < units.Picosecond {
			d = units.Picosecond
		}
		eng.After(d, inject)
	}
	eng.After(0, inject)
	eng.RunFor(window / 3)
	m.ResetStats()
	start := eng.Now()
	eng.RunFor(window)
	achieved := units.Rate(units.ByteSize(m.Delivered())*units.CacheLine, eng.Now()-start)
	return achieved, m.Latency().Mean(), m
}

func TestBufferedLatencyLoadCurve(t *testing.T) {
	// Latency must be flat at low load and rise near the mesh's limit.
	low, lowLat, _ := drive(t, units.GBps(8), 30*units.Microsecond)
	if low.GBpsValue() < 7 {
		t.Errorf("low-load achieved %v, want ~8", low)
	}
	_, highLat, _ := drive(t, units.GBps(200), 30*units.Microsecond)
	if highLat < units.Time(float64(lowLat)*1.3) {
		t.Errorf("no congestion knee: %v -> %v", lowLat, highLat)
	}
}

func TestBisectionBandwidth(t *testing.T) {
	for _, c := range []struct {
		w, h, cut int
	}{
		{4, 2, 2}, // wider than tall: the vertical cut crosses Height links
		{2, 4, 2}, // taller than wide: the horizontal cut crosses Width links
		{3, 3, 3},
		{1, 5, 1},
		{6, 1, 1},
	} {
		cfg := cfg4x2()
		cfg.Width, cfg.Height = c.w, c.h
		m := New(sim.New(1), cfg)
		if got, want := m.BisectionBandwidth(), units.Bandwidth(2*c.cut)*cfg.LinkCapacity; got != want {
			t.Errorf("%dx%d mesh: bisection %v, want %v", c.w, c.h, got, want)
		}
	}
}

func TestSaturationNearBisection(t *testing.T) {
	// Uniform-random saturation lands within a factor of ~2 of the
	// bisection bound (half the traffic crosses the cut on average, and
	// XY routing is not perfectly balanced).
	achieved, _, m := drive(t, units.GBps(400), 30*units.Microsecond)
	bisection := m.BisectionBandwidth().GBpsValue()
	if achieved.GBpsValue() < bisection*0.5 || achieved.GBpsValue() > bisection*2.2 {
		t.Errorf("saturation %.1f vs bisection %.1f GB/s: out of the plausible band",
			achieved.GBpsValue(), bisection)
	}
}

func TestPanics(t *testing.T) {
	eng := sim.New(1)
	for name, fn := range map[string]func(){
		"bad dims": func() { New(eng, Config{Width: 0, Height: 2, LinkCapacity: 1}) },
		"no cap":   func() { New(eng, Config{Width: 2, Height: 2}) },
		"off mesh": func() {
			m := New(eng, cfg4x2())
			m.Route(topology.Coord{X: 9, Y: 9}, topology.Coord{}, 64, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
