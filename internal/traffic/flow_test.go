package traffic

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

// coresOf enumerates the first n cores of the profile in CCD-major order.
func coresOf(p *topology.Profile, n int) []topology.CoreID {
	var out []topology.CoreID
	for ccd := 0; ccd < p.CCDs && len(out) < n; ccd++ {
		for ccx := 0; ccx < p.CCXPerCCD() && len(out) < n; ccx++ {
			for c := 0; c < p.CoresPerCCX() && len(out) < n; c++ {
				out = append(out, topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
			}
		}
	}
	return out
}

// measure runs a closed-loop or paced flow with warmup and reports the
// steady-state bandwidth in GB/s.
func measure(t *testing.T, p *topology.Profile, cfg FlowConfig, warmup, window units.Time) float64 {
	t.Helper()
	eng := sim.New(7)
	net := core.New(eng, p)
	f, err := NewFlow(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	eng.RunFor(warmup)
	f.ResetStats()
	eng.RunFor(window)
	return f.Achieved().GBpsValue()
}

func within(t *testing.T, got, want, tolFrac float64, label string) {
	t.Helper()
	if math.Abs(got-want) > want*tolFrac {
		t.Errorf("%s = %.1f GB/s, want %.1f (+-%.0f%%)", label, got, want, tolFrac*100)
	}
}

func TestTable3ReadBandwidth7302(t *testing.T) {
	p := topology.EPYC7302()
	umcs := p.UMCSet(topology.NPS1, 0)
	cfg := func(n int) FlowConfig {
		return FlowConfig{Name: "rd", Cores: coresOf(p, n), Op: txn.Read,
			Kind: core.DestDRAM, UMCs: umcs}
	}
	within(t, measure(t, p, cfg(1), 20*units.Microsecond, 50*units.Microsecond), 14.9, 0.08, "7302 core read")
	within(t, measure(t, p, cfg(2), 20*units.Microsecond, 50*units.Microsecond), 25.1, 0.08, "7302 CCX read")
	within(t, measure(t, p, cfg(4), 20*units.Microsecond, 50*units.Microsecond), 32.5, 0.08, "7302 CCD read")
	within(t, measure(t, p, cfg(16), 20*units.Microsecond, 50*units.Microsecond), 106.7, 0.08, "7302 CPU read")
}

func TestTable3WriteBandwidth7302(t *testing.T) {
	p := topology.EPYC7302()
	umcs := p.UMCSet(topology.NPS1, 0)
	cfg := func(n int) FlowConfig {
		return FlowConfig{Name: "wr", Cores: coresOf(p, n), Op: txn.NTWrite,
			Kind: core.DestDRAM, UMCs: umcs}
	}
	within(t, measure(t, p, cfg(1), 20*units.Microsecond, 50*units.Microsecond), 3.6, 0.10, "7302 core write")
	within(t, measure(t, p, cfg(2), 20*units.Microsecond, 50*units.Microsecond), 7.1, 0.10, "7302 CCX write")
	within(t, measure(t, p, cfg(4), 20*units.Microsecond, 50*units.Microsecond), 14.3, 0.10, "7302 CCD write")
	within(t, measure(t, p, cfg(16), 20*units.Microsecond, 50*units.Microsecond), 55.1, 0.10, "7302 CPU write")
}

func TestTable3ReadBandwidth9634(t *testing.T) {
	p := topology.EPYC9634()
	umcs := p.UMCSet(topology.NPS1, 0)
	cfg := func(n int) FlowConfig {
		return FlowConfig{Name: "rd", Cores: coresOf(p, n), Op: txn.Read,
			Kind: core.DestDRAM, UMCs: umcs}
	}
	within(t, measure(t, p, cfg(1), 20*units.Microsecond, 50*units.Microsecond), 14.6, 0.08, "9634 core read")
	within(t, measure(t, p, cfg(7), 20*units.Microsecond, 50*units.Microsecond), 35.2, 0.08, "9634 CCX read")
	within(t, measure(t, p, cfg(84), 20*units.Microsecond, 50*units.Microsecond), 366.2, 0.08, "9634 CPU read")
}

func TestTable3CXLBandwidth9634(t *testing.T) {
	p := topology.EPYC9634()
	mods := []int{0, 1, 2, 3}
	cfg := func(n int, op txn.Op) FlowConfig {
		return FlowConfig{Name: "cxl", Cores: coresOf(p, n), Op: op,
			Kind: core.DestCXL, Modules: mods}
	}
	within(t, measure(t, p, cfg(1, txn.Read), 20*units.Microsecond, 50*units.Microsecond), 5.4, 0.10, "9634 core CXL read")
	within(t, measure(t, p, cfg(7, txn.Read), 20*units.Microsecond, 50*units.Microsecond), 23.6, 0.10, "9634 CCX CXL read")
	within(t, measure(t, p, cfg(84, txn.Read), 30*units.Microsecond, 50*units.Microsecond), 88.1, 0.10, "9634 CPU CXL read")
	within(t, measure(t, p, cfg(7, txn.NTWrite), 20*units.Microsecond, 50*units.Microsecond), 15.8, 0.10, "9634 CCX CXL write")
	within(t, measure(t, p, cfg(84, txn.NTWrite), 30*units.Microsecond, 50*units.Microsecond), 87.7, 0.10, "9634 CPU CXL write")
}

func TestPacedFlowHitsDemand(t *testing.T) {
	p := topology.EPYC7302()
	got := measure(t, p, FlowConfig{
		Name: "paced", Cores: coresOf(p, 4), Op: txn.Read,
		Kind: core.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
		Demand: units.GBps(10),
	}, 20*units.Microsecond, 50*units.Microsecond)
	within(t, got, 10, 0.05, "paced 10GB/s")
}

func TestPacedFlowWithJitterStillHitsDemand(t *testing.T) {
	p := topology.EPYC7302()
	got := measure(t, p, FlowConfig{
		Name: "jit", Cores: coresOf(p, 4), Op: txn.Read,
		Kind: core.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
		Demand: units.GBps(10), Jitter: true,
	}, 20*units.Microsecond, 100*units.Microsecond)
	within(t, got, 10, 0.08, "jittered 10GB/s")
}

func TestFlowStopHalts(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC7302()
	net := core.New(eng, p)
	f := MustFlow(net, FlowConfig{
		Name: "s", Cores: coresOf(p, 1), Op: txn.Read,
		Kind: core.DestDRAM, UMCs: []int{0},
	})
	f.Start()
	eng.RunFor(10 * units.Microsecond)
	f.Stop()
	eng.RunFor(5 * units.Microsecond)
	bytes := f.Meter().Bytes()
	eng.RunFor(20 * units.Microsecond)
	if f.Meter().Bytes() != bytes {
		t.Error("flow kept transferring after Stop (beyond drain)")
	}
}

func TestFlowSetDemandThrottles(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC7302()
	net := core.New(eng, p)
	f := MustFlow(net, FlowConfig{
		Name: "th", Cores: coresOf(p, 4), Op: txn.Read,
		Kind: core.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
		Demand: units.GBps(12),
	})
	f.Start()
	eng.RunFor(20 * units.Microsecond)
	f.ResetStats()
	eng.RunFor(30 * units.Microsecond)
	before := f.Achieved().GBpsValue()
	f.SetDemand(units.GBps(4))
	eng.RunFor(10 * units.Microsecond) // drain
	f.ResetStats()
	eng.RunFor(30 * units.Microsecond)
	after := f.Achieved().GBpsValue()
	if math.Abs(before-12) > 1.0 || math.Abs(after-4) > 0.5 {
		t.Errorf("throttle: before %.1f (want 12), after %.1f (want 4)", before, after)
	}
}

func TestNewFlowValidation(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC7302()
	net := core.New(eng, p)
	cases := map[string]FlowConfig{
		"no cores":     {Name: "x", Kind: core.DestDRAM, UMCs: []int{0}},
		"no umcs":      {Name: "x", Cores: coresOf(p, 1), Kind: core.DestDRAM},
		"no modules":   {Name: "x", Cores: coresOf(p, 1), Kind: core.DestCXL},
		"bad interccd": {Name: "x", Cores: coresOf(p, 1), Kind: core.DestLLCInter, DstCCD: 99},
		"interccd own": {Name: "x", Cores: coresOf(p, 1), Kind: core.DestLLCInter, DstCCD: 0},
		"interccd mix": {Name: "x", Cores: coresOf(p, 8), Kind: core.DestLLCInter, DstCCD: 1},
		"adaptive w=0": {Name: "x", Cores: coresOf(p, 1), Kind: core.DestDRAM, UMCs: []int{0}, Adaptive: true},
		"bad kind":     {Name: "x", Cores: coresOf(p, 1), Kind: core.DestKind(9)},
	}
	for name, cfg := range cases {
		if _, err := NewFlow(net, cfg); err == nil {
			t.Errorf("%s: NewFlow accepted an invalid config", name)
		}
	}
	// The 7302's first eight cores in CCD-major order span ccd0 and ccd1:
	// the error names the four on the target.
	_, err := NewFlow(net, FlowConfig{Name: "x", Cores: coresOf(p, 8), Kind: core.DestLLCInter, DstCCD: 1})
	want := "ccd1/ccx0/core0, ccd1/ccx0/core1, ccd1/ccx1/core0, ccd1/ccx1/core1"
	if err == nil || !strings.HasSuffix(err.Error(), "source cores "+want) {
		t.Errorf("same-chiplet inter-CC error = %v, want it to name %s", err, want)
	}
	// A doorbell is no flow: the device kind is refused by name.
	_, err = NewFlow(net, FlowConfig{Name: "x", Cores: coresOf(p, 1), Kind: core.DestDevice})
	if err == nil || !strings.Contains(err.Error(), "targets the device") {
		t.Errorf("device flow error = %v, want a refusal naming the device", err)
	}
	// Cores on the other chiplets are accepted.
	if _, err := NewFlow(net, FlowConfig{Name: "x", Cores: coresOf(p, 4), Kind: core.DestLLCInter, DstCCD: 1}); err != nil {
		t.Errorf("ccd0 -> ccd1 rejected: %v", err)
	}
	// CXL flow on a CXL-less platform.
	if _, err := NewFlow(net, FlowConfig{
		Name: "x", Cores: coresOf(p, 1), Kind: core.DestCXL, Modules: []int{0},
	}); err == nil {
		t.Error("CXL flow on the 7302 should be rejected")
	}
}

func TestMustFlowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustFlow(core.New(sim.New(1), topology.EPYC7302()), FlowConfig{})
}
