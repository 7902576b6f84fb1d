package link

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func BenchmarkChannelTrySend(b *testing.B) {
	eng := sim.New(1)
	ch := NewChannel(eng, "bench", units.GBps(64), 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.TrySend(units.CacheLine, nil)
		// Drain periodically so the calendar stays small.
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkChannelSaturated keeps a depth-64 channel full. With a
// pre-bound delivery callback the steady state must report 0 B/op: any
// growth of the departure ring shows up there even when amortized append
// rounds allocs/op down to 0.
func BenchmarkChannelSaturated(b *testing.B) {
	eng := sim.New(1)
	ch := NewChannel(eng, "bench", units.GBps(32), 0, 64)
	delivered := 0
	deliver := func() { delivered++ }
	var pump func()
	pump = func() {
		for ch.TrySend(units.CacheLine, deliver) {
		}
		eng.After(2*units.Nanosecond, pump)
	}
	eng.After(0, pump)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkChannelWriteback sends one nil-delivery message per
// serialization time into an unbounded channel, as writebacks do: each
// leaves only a departure stamp, so the steady state must report 0 B/op.
func BenchmarkChannelWriteback(b *testing.B) {
	eng := sim.New(1)
	ch := NewChannel(eng, "bench", units.GBps(32), 0, 0)
	gap := units.GBps(32).TimeToSend(units.CacheLine)
	var pump func()
	pump = func() {
		ch.Send(units.CacheLine, nil)
		eng.After(gap, pump)
	}
	eng.After(0, pump)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkTokenPoolAcquireRelease(b *testing.B) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "bench", 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(func() {})
		p.Release()
	}
}

// BenchmarkTokenPoolAcquireReleaseQueued keeps four waiters queued behind
// a one-token pool: every Acquire appends a waiter and every Release
// grants the oldest, so grants pop by head index and appends compact the
// queue. The steady state must report 0 B/op.
func BenchmarkTokenPoolAcquireReleaseQueued(b *testing.B) {
	eng := sim.New(1)
	p := NewTokenPool(eng, "bench", 1)
	for i := 0; i < 5; i++ {
		p.Acquire(func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(func() {})
		p.Release()
	}
}
