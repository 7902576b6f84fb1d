package sim

import (
	"testing"

	"repro/internal/units"
)

func BenchmarkEngineEventChurn(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(units.Nanosecond, tick)
		}
	}
	b.ResetTimer()
	e.After(0, tick)
	e.Run()
}

func BenchmarkEngineHeapFanout(b *testing.B) {
	// Many pending events at once: heap push/pop cost.
	e := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+units.Time(i%1000)+1, func() {})
		if e.Pending() > 4096 {
			e.Step()
		}
	}
	e.Run()
}

// BenchmarkEngineFlagshipMix drives the calendar with the Figure 4
// flagship cell's measured event profile: about 80 events pending, delays
// ≈45% under 4 ns, ≈50% 4–64 ns, a few percent 64–262 ns and a thin tail
// beyond the wheel horizon. Each event schedules one successor and
// nothing peeks the calendar, as on the walker's hop path. ns/op is the
// cost of one dispatched event.
func BenchmarkEngineFlagshipMix(b *testing.B) {
	e := New(1)
	r := e.Rand()
	n := 0
	var fire func()
	fire = func() {
		if n++; n < b.N {
			e.After(flagshipDelay(r), fire)
		}
	}
	for i := 0; i < 80; i++ {
		e.After(flagshipDelay(r), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N && e.Step() {
	}
}

// flagshipDelay draws one scheduling delay from the flagship cell's
// measured spread.
func flagshipDelay(r *RNG) units.Time {
	switch u := r.Intn(1000); {
	case u < 450:
		return units.Time(r.Intn(4000))
	case u < 955:
		return 4*units.Nanosecond + units.Time(r.Intn(60000))
	case u < 995:
		return 64*units.Nanosecond + units.Time(r.Intn(198000))
	default:
		return wheelSpan + units.Time(r.Intn(1000000))
	}
}

// BenchmarkEngineNew reports what building an engine costs: B/op is the
// slot table and bitmap New allocates before any event is scheduled.
func BenchmarkEngineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engineSink = New(uint64(i))
	}
}

var engineSink *Engine

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGExpFloat64(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.ExpFloat64()
	}
	_ = sink
}
