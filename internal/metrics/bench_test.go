package metrics_test

import (
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// instrumentedNet builds the full EPYC 9634 network with every channel,
// pool and device registered — the production-sized probe table
// (thousands of instruments).
func instrumentedNet() (*sim.Engine, *metrics.Registry) {
	eng := sim.New(7)
	net := core.New(eng, topology.EPYC9634())
	reg := metrics.New(metrics.Config{})
	net.AttachMetrics(reg)
	reg.Start(eng)
	return eng, reg
}

// BenchmarkMetricsHarvest measures one harvest tick over the full
// network's instrument table. ci.sh gates it at 0 B/op and 0 allocs/op:
// once the ring has grown to MaxWindows and wrapped, harvesting reuses
// it, and rescheduling reuses the pre-bound callback.
func BenchmarkMetricsHarvest(b *testing.B) {
	eng, reg := instrumentedNet()
	// Warm the calendar's overflow structures and grow the ring to
	// MaxWindows (its doublings are one-off growth, not the steady state).
	for reg.DroppedWindows() == 0 {
		eng.RunFor(metrics.DefaultWindow)
	}
	first := reg.Total()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(metrics.DefaultWindow)
	}
	if reg.Total()-first < b.N {
		b.Fatalf("harvested %d windows, want >= %d", reg.Total()-first, b.N)
	}
}

// TestHarvestAllocs is the same 0-alloc contract as a plain test, so
// `go test` catches a regression without running benchmarks.
func TestHarvestAllocs(t *testing.T) {
	eng, _ := instrumentedNet()
	eng.RunFor(4 * metrics.DefaultWindow)
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunFor(metrics.DefaultWindow)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per harvest window, want 0", allocs)
	}
}

// trackBench registers the channel probe set the core wiring uses,
// giving the churn fixture real instruments to harvest.
func trackBench(reg *metrics.Registry, ch *link.Channel) {
	reg.Counter(ch.Name(), metrics.MetricBytes, "link", "bytes", metrics.ProbeFunc(func() float64 { return float64(ch.Bytes()) }))
	reg.Counter(ch.Name(), metrics.MetricMsgs, "link", "msgs", metrics.ProbeFunc(func() float64 { return float64(ch.Messages()) }))
	reg.Counter(ch.Name(), metrics.MetricBusy, "link", "ps", metrics.ProbeFunc(func() float64 { return float64(ch.BusyTime()) }))
	reg.Counter(ch.Name(), metrics.MetricWait, "link", "ps", metrics.ProbeFunc(func() float64 { return float64(ch.QueueWaitTotal()) }))
	reg.Counter(ch.Name(), metrics.MetricRefused, "link", "msgs", metrics.ProbeFunc(func() float64 { return float64(ch.Refused()) }))
	reg.Gauge(ch.Name(), metrics.MetricDepth, "link", "msgs", metrics.ProbeFunc(func() float64 { return float64(ch.Queued()) }))
}

// churnChannel builds the event-churn fixture from the tracer benchmarks:
// a serialized channel whose send->depart->resend loop exercises the
// engine hot path. mode selects no registry, attached-but-unstarted, or
// harvesting.
func churnChannel(mode string) (*sim.Engine, *link.Channel, *metrics.Registry) {
	eng := sim.New(1)
	ch := link.NewChannel(eng, "bench", units.GBps(32), units.Nanosecond, 0)
	var reg *metrics.Registry
	if mode != "none" {
		reg = metrics.New(metrics.Config{})
		trackBench(reg, ch)
		if mode == "harvesting" {
			reg.Start(eng)
		}
	}
	return eng, ch, reg
}

// churn drives n sends through the channel, re-arming from the delivery
// callback so exactly one message is in flight — pure event churn. The
// last delivery stops the registry so its self-rescheduling harvest
// chain winds down and eng.Run can drain.
func churn(eng *sim.Engine, ch *link.Channel, reg *metrics.Registry, n int) {
	sent := 0
	var send func()
	send = func() {
		sent++
		if sent < n {
			ch.Send(units.CacheLine, send)
		} else if reg != nil {
			reg.Stop()
		}
	}
	ch.Send(units.CacheLine, send)
	eng.Run()
}

func benchChurn(b *testing.B, mode string) {
	eng, ch, reg := churnChannel(mode)
	b.ReportAllocs()
	b.ResetTimer()
	churn(eng, ch, reg, b.N)
}

func BenchmarkChannelChurnNoMetrics(b *testing.B)         { benchChurn(b, "none") }
func BenchmarkChannelChurnMetricsUnstarted(b *testing.B)  { benchChurn(b, "unstarted") }
func BenchmarkChannelChurnMetricsHarvesting(b *testing.B) { benchChurn(b, "harvesting") }

// TestEnabledMetricsOverhead is the enabled-cost contract: a harvesting
// registry amortizes one probe sweep over the tens of thousands of
// events a window contains, so the event hot path must stay within ~5%
// of the uninstrumented run (plus a small absolute epsilon for timer
// noise). The unstarted case is not measured separately: without Start
// there is no harvest event and no hook site, so its cost is structurally
// identical to none. Wall-clock ratios are too noisy for a plain go test
// on a shared host, so the ratio is asserted only with
// CHIPLET_OVERHEAD_GATE=1, which ci.sh sets on its overhead leg. Without
// it the test checks the deterministic half of the contract: harvesting
// only reads, so the channel's counters match the uninstrumented run.
func TestEnabledMetricsOverhead(t *testing.T) {
	if os.Getenv("CHIPLET_OVERHEAD_GATE") == "" {
		run := func(mode string) link.Stats {
			eng, ch, reg := churnChannel(mode)
			churn(eng, ch, reg, 5000)
			return ch.Stats()
		}
		if plain, harvested := run("none"), run("harvesting"); plain != harvested {
			t.Fatalf("harvesting registry perturbed the run: %+v vs %+v", harvested, plain)
		}
		return
	}
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	nsPerOp := func(mode string) float64 {
		r := testing.Benchmark(func(b *testing.B) { benchChurn(b, mode) })
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	// Time none and harvesting back to back in pairs, alternating which
	// runs first, so host drift lands on both sides of a pair instead of
	// on one mode; the contract holds if the median pair meets the bound.
	// Fifteen pairs keep one noisy pair from moving the median: with
	// seven, a shared two-CPU host failed the unchanged bound now and then.
	const pairs = 15
	excess := make([]float64, pairs)
	for i := range excess {
		var none, harvesting float64
		if i%2 == 0 {
			none = nsPerOp("none")
			harvesting = nsPerOp("harvesting")
		} else {
			harvesting = nsPerOp("harvesting")
			none = nsPerOp("none")
		}
		limit := none*1.05 + 2.0 // 5% plus 2 ns absolute slack
		excess[i] = harvesting - limit
		t.Logf("pair %d: none=%.1f ns/op harvesting=%.1f ns/op limit=%.1f ns/op", i, none, harvesting, limit)
	}
	sort.Float64s(excess)
	if med := excess[pairs/2]; med > 0 {
		t.Fatalf("harvesting registry too slow: the median pair exceeds its limit (none*1.05 + 2 ns) by %.1f ns/op", med)
	}
}

// TestUnstartedRegistryInvisible: an attached-but-unstarted registry
// must leave the simulation byte-identical — no events, no samples, no
// perturbation of any channel counter.
func TestUnstartedRegistryInvisible(t *testing.T) {
	run := func(mode string) (units.Time, link.Stats) {
		eng, ch, reg := churnChannel(mode)
		churn(eng, ch, reg, 5000)
		return eng.Now(), ch.Stats()
	}
	plainNow, plainStats := run("none")
	attachedNow, attachedStats := run("unstarted")
	if plainNow != attachedNow || plainStats != attachedStats {
		t.Fatalf("unstarted registry perturbed the run: %v/%+v vs %v/%+v",
			plainNow, plainStats, attachedNow, attachedStats)
	}
}
