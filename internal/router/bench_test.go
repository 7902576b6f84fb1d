package router

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// BenchmarkMeshRoute drives a buffered 4x2 mesh at its bisection bandwidth
// (one cache line every 500 ps, uniform random pairs), one engine event per
// iteration. Frames are pooled and every callback is pre-bound, so once the
// pool and the departure rings are warm the steady state must report 0 B/op
// and 0 allocs/op.
func BenchmarkMeshRoute(b *testing.B) {
	eng := sim.New(7)
	m := New(eng, cfg4x2())
	rng := sim.NewRNG(99)
	inFlight := 0
	done := func() { inFlight-- }
	var inject func()
	inject = func() {
		if inFlight < 256 {
			src := topology.Coord{X: rng.Intn(4), Y: rng.Intn(2)}
			dst := topology.Coord{X: rng.Intn(4), Y: rng.Intn(2)}
			for dst == src {
				dst = topology.Coord{X: rng.Intn(4), Y: rng.Intn(2)}
			}
			inFlight++
			m.Route(src, dst, units.CacheLine, done)
		}
		eng.After(500*units.Picosecond, inject)
	}
	eng.After(0, inject)
	eng.RunFor(20 * units.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
