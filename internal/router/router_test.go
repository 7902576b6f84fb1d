package router

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestUnloadedLatencyIsHopCount(t *testing.T) {
	eng := sim.New(1)
	m := New(eng)
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
	m := New(eng)
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

// drive runs Drive on the engine and pair stream every load test uses.
func drive(offered units.Bandwidth, window units.Time) (units.Bandwidth, units.Time) {
	return Drive(sim.New(7), sim.NewRNG(99), offered, window)
}

func TestBufferedLatencyLoadCurve(t *testing.T) {
	// Latency must be flat at low load and rise near the mesh's limit.
	low, lowLat := drive(units.GBps(8), 30*units.Microsecond)
	if low.GBpsValue() < 7 {
		t.Errorf("low-load achieved %v, want ~8", low)
	}
	_, highLat := drive(units.GBps(200), 30*units.Microsecond)
	if highLat < units.Time(float64(lowLat)*1.3) {
		t.Errorf("no congestion knee: %v -> %v", lowLat, highLat)
	}
}

func TestSaturationNearBisection(t *testing.T) {
	// Uniform-random saturation lands within a factor of ~2 of the
	// bisection bound (half the traffic crosses the cut on average, and
	// XY routing is not perfectly balanced).
	achieved, _ := drive(units.GBps(400), 30*units.Microsecond)
	// The 4x2 mesh's bisection bound in GB/s: its narrower middle cut
	// crosses min(4, 2) links each way, 2·min(4,2)·32 GB/s = 128 GB/s.
	const bisection = 128.0
	if achieved.GBpsValue() < bisection*0.5 || achieved.GBpsValue() > bisection*2.2 {
		t.Errorf("saturation %.1f vs bisection %.1f GB/s: out of the plausible band",
			achieved.GBpsValue(), bisection)
	}
}

func TestPanics(t *testing.T) {
	m := New(sim.New(1))
	defer func() {
		if recover() == nil {
			t.Error("off mesh: expected panic")
		}
	}()
	m.Route(topology.Coord{X: 9, Y: 9}, topology.Coord{}, 64, nil)
}
