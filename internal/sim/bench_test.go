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
// of 262 ns–1.26 µs.
func BenchmarkEngineFlagshipMix(b *testing.B) {
	benchDelayMix(b, 80, []delayBand{
		{450, 0, 4000},
		{505, 4 * units.Nanosecond, 60000},
		{40, 64 * units.Nanosecond, 198000},
		{5, 262144, 1000000},
	})
}

// BenchmarkEngineDeepMix drives the calendar with membw_write's measured
// event profile, the deep calendar of saturated DRAM write queues: about
// 1,700 events pending, delays ≈10% under 1 ns, 22% 1–4 ns, 38% 4–64 ns,
// 10% 64–262 ns and 20% 262 ns–1 µs.
func BenchmarkEngineDeepMix(b *testing.B) {
	benchDelayMix(b, 1700, []delayBand{
		{100, 0, 1000},
		{220, units.Nanosecond, 3000},
		{380, 4 * units.Nanosecond, 60000},
		{100, 64 * units.Nanosecond, 198000},
		{200, 262 * units.Nanosecond, 738000},
	})
}

// delayBand is one band of a measured delay spread: its share of draws in
// per mille, and the range [lo, lo+span) it draws from uniformly.
type delayBand struct {
	permille int
	lo, span units.Time
}

// benchDelayMix keeps about pending events scheduled, each drawing its
// delay from mix (whose shares sum to 1000) and scheduling one successor
// when it fires. Nothing peeks the calendar, as on the walker's hop path.
// ns/op is the cost of one dispatched event.
func benchDelayMix(b *testing.B, pending int, mix []delayBand) {
	e := New(1)
	r := e.Rand()
	delay := func() units.Time {
		u := r.Intn(1000)
		for _, d := range mix {
			if u < d.permille {
				return d.lo + units.Time(r.Intn(int(d.span)))
			}
			u -= d.permille
		}
		panic("sim: delay mix shares do not sum to 1000")
	}
	n := 0
	var fire func()
	fire = func() {
		if n++; n < b.N {
			e.After(delay(), fire)
		}
	}
	for i := 0; i < pending; i++ {
		e.After(delay(), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N && e.Step() {
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
