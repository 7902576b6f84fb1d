package trace_test

import (
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// churnChannel builds the event-churn fixture: a serialized channel whose
// send->depart->resend loop exercises the same engine hot path as
// BenchmarkEngineEventChurn in internal/sim, plus the channel's tracer
// hook site. mode selects nil tracer, attached-but-disabled, or enabled.
func churnChannel(mode string) (*sim.Engine, *link.Channel, *trace.Tracer) {
	eng := sim.New(1)
	ch := link.NewChannel(eng, "bench", units.GBps(32), units.Nanosecond, 0)
	var tr *trace.Tracer
	switch mode {
	case "disabled":
		tr = trace.New(trace.Config{SpanCap: 1 << 16})
		ch.SetTracer(tr)
	case "enabled":
		tr = trace.New(trace.Config{SpanCap: 1 << 16})
		ch.SetTracer(tr)
		tr.Enable()
	}
	return eng, ch, tr
}

// churn drives n sends through the channel, re-arming from the delivery
// callback so exactly one message is in flight — pure event churn.
func churn(eng *sim.Engine, ch *link.Channel, n int) {
	sent := 0
	var send func()
	send = func() {
		sent++
		if sent < n {
			ch.Send(units.CacheLine, send)
		}
	}
	ch.Send(units.CacheLine, send)
	eng.Run()
}

func benchChurn(b *testing.B, mode string) {
	eng, ch, _ := churnChannel(mode)
	// Finish any GC cycle the fixture's allocations (a tracer's span ring)
	// started, so its mark phase and write barriers do not overlap the
	// timed loop of one mode only.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	churn(eng, ch, b.N)
}

func BenchmarkChannelChurnNilTracer(b *testing.B)      { benchChurn(b, "nil") }
func BenchmarkChannelChurnDisabledTracer(b *testing.B) { benchChurn(b, "disabled") }
func BenchmarkChannelChurnEnabledTracer(b *testing.B)  { benchChurn(b, "enabled") }

// TestDisabledTracerOverhead is the off-by-default overhead contract:
// attaching a tracer without enabling it must not slow the channel/engine
// hot path by more than ~5% (plus a small absolute epsilon for timer
// noise on loaded machines), judged over interleaved nil/disabled pairs.
// Wall-clock ratios are too noisy for a plain
// go test on a shared host, so the ratio is asserted only with
// CHIPLET_OVERHEAD_GATE=1, which ci.sh sets on its overhead leg. Without
// it the test checks the deterministic half of the contract: a disabled
// tracer leaves the churn run's clock and channel counters untouched.
func TestDisabledTracerOverhead(t *testing.T) {
	if os.Getenv("CHIPLET_OVERHEAD_GATE") == "" {
		run := func(mode string) (units.Time, link.Stats) {
			eng, ch, _ := churnChannel(mode)
			churn(eng, ch, 5000)
			return eng.Now(), ch.Stats()
		}
		nilNow, nilStats := run("nil")
		disNow, disStats := run("disabled")
		if nilNow != disNow || nilStats != disStats {
			t.Fatalf("disabled tracer perturbed the run: %v/%+v vs %v/%+v",
				disNow, disStats, nilNow, nilStats)
		}
		return
	}
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("overhead thresholds are meaningless under race instrumentation; the dedicated ci.sh leg gates this")
	}
	nsPerOp := func(mode string) float64 {
		r := testing.Benchmark(func(b *testing.B) { benchChurn(b, mode) })
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	// Time nil and disabled back to back in pairs, alternating which runs
	// first, so host drift lands on both sides of a pair instead of on one
	// mode; the contract holds if the median pair meets the bound.
	const pairs = 7
	excess := make([]float64, pairs)
	for i := range excess {
		var nil_, disabled float64
		if i%2 == 0 {
			nil_ = nsPerOp("nil")
			disabled = nsPerOp("disabled")
		} else {
			disabled = nsPerOp("disabled")
			nil_ = nsPerOp("nil")
		}
		limit := nil_*1.05 + 2.0 // 5% plus 2 ns absolute slack
		excess[i] = disabled - limit
		t.Logf("pair %d: nil=%.1f ns/op disabled=%.1f ns/op limit=%.1f ns/op", i, nil_, disabled, limit)
	}
	sort.Float64s(excess)
	if med := excess[pairs/2]; med > 0 {
		t.Fatalf("attached-but-disabled tracer too slow: the median pair exceeds its limit (nil*1.05 + 2 ns) by %.1f ns/op", med)
	}
}

// TestHotPathAllocs: the hooks must not allocate, even when enabled —
// the counters are preallocated, and the span ring allocates only on the
// first write into each of its chunks (the warm-up churn makes the one
// this fixture uses; TestSpanRingBounded bounds the rest).
func TestHotPathAllocs(t *testing.T) {
	for _, mode := range []string{"nil", "disabled", "enabled"} {
		eng, ch, _ := churnChannel(mode)
		// Warm the engine's free lists and the channel's state.
		churn(eng, ch, 64)
		allocs := testing.AllocsPerRun(200, func() {
			ch.Send(units.CacheLine, nil)
			eng.Run()
		})
		if allocs != 0 {
			t.Fatalf("mode %s: %v allocs per send on the hot path", mode, allocs)
		}
	}
}

// TestEnabledTracerRecordsChurn sanity-checks the fixture actually hits
// the hook: the enabled run must record spans and meter the bytes.
func TestEnabledTracerRecordsChurn(t *testing.T) {
	eng, ch, tr := churnChannel("enabled")
	churn(eng, ch, 100)
	c := tr.Counters(ch.Hop())
	if c.Meter.Ops() != 100 {
		t.Fatalf("metered %d messages, want 100", c.Meter.Ops())
	}
	// Each message serializes and propagates; back-to-back resends from
	// the delivery callback never queue.
	if tr.SpanCount() != 200 {
		t.Fatalf("recorded %d spans, want 200", tr.SpanCount())
	}
	if c.ByCause[trace.CauseQueued] != 0 {
		t.Fatalf("unexpected queueing in churn fixture: %v", c.ByCause)
	}
}

// spanTracer records n spans spread over three hops and every cause.
func spanTracer(n int) *trace.Tracer {
	tr := trace.New(trace.Config{SpanCap: n})
	hops := []trace.HopID{
		tr.RegisterHop("ccd0/gmi/out", trace.KindChannel),
		tr.RegisterHop("umc0/rd", trace.KindChannel),
		tr.RegisterHop("umc0/dram", trace.KindDevice),
	}
	tr.Enable()
	for i := 0; i < n; i++ {
		tr.SetActive(uint64(i/4 + 1))
		at := units.Time(i) * 1337
		tr.Range(hops[i%len(hops)], trace.Cause(i%trace.NumCauses), at, at+units.Time(i%9+1)*250)
	}
	return tr
}

// TestExportAllocsFlat: the export's allocations must not scale with the
// span count — the encoder appends every span into one reused buffer.
func TestExportAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector: sync.Pool drops entries at random")
	}
	allocs := func(n int) float64 {
		tr := spanTracer(n)
		if tr.SpanCount() != n {
			t.Fatalf("fixture recorded %d spans, want %d", tr.SpanCount(), n)
		}
		// A GC cycle inside the measured runs would empty sync.Pools,
		// fmt's printer cache among them, and the export would reallocate
		// what it normally reuses. Collect first, then hold GC off for the
		// measured stretch.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(3, func() {
			if err := tr.WriteTraceEvents(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(100000)
	if small != large {
		t.Fatalf("export allocates %v times for 1k spans but %v for 100k: allocations grow with spans", small, large)
	}
}

// BenchmarkWriteTraceEvents exports a 64k-span tracer; ns/op over the
// span count is the encoder's per-span cost.
func BenchmarkWriteTraceEvents(b *testing.B) {
	tr := spanTracer(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteTraceEvents(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
