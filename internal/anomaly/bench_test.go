package anomaly_test

import (
	"testing"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// monitoredNet is the metrics bench fixture plus a monitor: the full
// EPYC 9634 network's instrument table (thousands of wait_ps counters)
// with the detectors attached.
func monitoredNet() (*sim.Engine, *metrics.Registry, *anomaly.Monitor) {
	eng := sim.New(7)
	net := core.New(eng, topology.EPYC9634())
	reg := metrics.New(metrics.Config{})
	net.AttachMetrics(reg)
	mon := anomaly.Attach(reg, anomaly.Config{})
	reg.Start(eng)
	return eng, reg, mon
}

// BenchmarkDetectorSweep measures one harvest tick with the detector
// sweep running over the full network's watch list. ci.sh gates it at 0
// allocs/op: detector state is preallocated at the first sweep, and with
// no traffic no incident ever opens, so the steady-state path must not
// allocate.
func BenchmarkDetectorSweep(b *testing.B) {
	eng, reg, mon := monitoredNet()
	// Warm: first sweep sizes the state table, the calendar settles, and
	// the registry's ring grows to MaxWindows (one-off growth, not steady
	// state).
	for reg.DroppedWindows() == 0 {
		eng.RunFor(metrics.DefaultWindow)
	}
	first := reg.Total()
	if mon.NumWatched() == 0 {
		b.Fatal("no instruments watched")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(metrics.DefaultWindow)
	}
	if reg.Total()-first < b.N {
		b.Fatalf("harvested %d windows, want >= %d", reg.Total()-first, b.N)
	}
	if mon.NumIncidents() != 0 {
		b.Fatalf("idle network raised %d incidents", mon.NumIncidents())
	}
}

// TestDetectorSweepAllocs is the same 0-alloc contract as a plain test,
// so `go test` catches a regression without running benchmarks.
func TestDetectorSweepAllocs(t *testing.T) {
	eng, _, mon := monitoredNet()
	eng.RunFor(4 * metrics.DefaultWindow)
	if mon.NumWatched() == 0 {
		t.Fatal("no instruments watched")
	}
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunFor(metrics.DefaultWindow)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per monitored harvest window, want 0", allocs)
	}
}
