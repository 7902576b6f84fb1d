// Integration tests: full-stack scenarios that cross every package
// boundary — network + traffic + manager + profiler + devtree — the way a
// downstream user composes them.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/devtree"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/trafficmgr"
	"repro/internal/txn"
	"repro/internal/units"
)

// TestManagedMultiTenantScenario drives the noisy-neighbor scenario end to
// end: two tenants on a shared memory channel, a max-min manager
// protecting the modest one, a profiler watching both, and the device-tree
// telemetry view reflecting the load.
func TestManagedMultiTenantScenario(t *testing.T) {
	prof := topology.EPYC9634()
	eng := sim.New(7)
	net := core.New(eng, prof)
	prf := profile.New(32)

	mk := func(name string, ccd int, demand units.Bandwidth) *traffic.Flow {
		return traffic.MustFlow(net, traffic.FlowConfig{
			Name: name, Op: txn.Read,
			Kind: core.DestDRAM, UMCs: []int{0},
			Cores: []topology.CoreID{
				{CCD: ccd, Core: 0}, {CCD: ccd, Core: 1}, {CCD: ccd, Core: 2}},
			Demand: demand, Observer: prf.Observe,
		})
	}
	service := mk("service", 2, units.GBps(10))
	batch := mk("batch", 3, units.GBps(50))

	mgr := trafficmgr.New(eng, 20*units.Microsecond)
	mgr.AddResource("umc0/rd", prof.UMCReadCap)
	if err := mgr.Register(service, "umc0/rd"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register(batch, "umc0/rd"); err != nil {
		t.Fatal(err)
	}

	service.Start()
	batch.Start()
	mgr.Start()
	eng.RunFor(100 * units.Microsecond)
	service.ResetStats()
	batch.ResetStats()
	eng.RunFor(200 * units.Microsecond)

	// The manager must protect the service's 10 GB/s.
	if got := service.Achieved().GBpsValue(); got < 9.2 || got > 10.5 {
		t.Errorf("service achieved %.1f GB/s, want ~10", got)
	}
	// Work conservation: the batch job gets the residual of 34.9.
	if got := batch.Achieved().GBpsValue(); got < 22 || got > 25.5 {
		t.Errorf("batch achieved %.1f GB/s, want ~24.9", got)
	}

	// The profiler saw both tenants, with the batch job dominant.
	top := prf.Top(10)
	if len(top) < 2 {
		t.Fatalf("profiler tracked %d flows", len(top))
	}
	if !strings.Contains(top[0].Flow, "ccd3") {
		t.Errorf("dominant flow should come from the batch chiplet: %v", top[0])
	}
	report := prf.Report(5)
	if !strings.Contains(report, "read") {
		t.Error("profiler report missing latency section")
	}

	// The telemetry view reflects the shared channel's saturation.
	telem := devtree.Telemetry(net)
	var umcLine string
	for _, line := range strings.Split(telem, "\n") {
		if strings.HasPrefix(line, "umc0/rd") {
			umcLine = line
		}
	}
	if umcLine == "" {
		t.Fatal("telemetry missing umc0/rd")
	}
	if !strings.Contains(telem, "EPYC 9634") {
		t.Error("telemetry missing platform header")
	}
}

// TestDeterministicReplayAcrossStack re-runs a mixed workload twice with
// the same seed and demands bit-identical results, then once with another
// seed and demands a different latency trace.
func TestDeterministicReplayAcrossStack(t *testing.T) {
	run := func(seed uint64) (units.ByteSize, units.Time, units.Time) {
		prof := topology.EPYC9634()
		eng := sim.New(seed)
		net := core.New(eng, prof)
		var cores []topology.CoreID
		for c := 0; c < 5; c++ {
			cores = append(cores, topology.CoreID{CCD: 0, Core: c})
		}
		f := traffic.MustFlow(net, traffic.FlowConfig{
			Name: "mix", Cores: cores, Op: txn.Read,
			Kind: core.DestDRAM, UMCs: prof.UMCSet(topology.NPS2, 0),
			Demand: units.GBps(20), Jitter: true,
		})
		f.Start()
		eng.RunFor(60 * units.Microsecond)
		return f.Meter().Bytes(), f.Latency().Mean(), f.Latency().P999()
	}
	b1, m1, p1 := run(42)
	b2, m2, p2 := run(42)
	if b1 != b2 || m1 != m2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%v,%v,%v) vs (%v,%v,%v)", b1, m1, p1, b2, m2, p2)
	}
	b3, m3, _ := run(43)
	if b1 == b3 && m1 == m3 {
		t.Error("different seeds produced identical traces")
	}
}

// TestCrossChipletAndDeviceCoexistence drives DRAM, CXL and cache-to-cache
// traffic simultaneously and checks the domains stay within their own
// ceilings without starving each other.
func TestCrossChipletAndDeviceCoexistence(t *testing.T) {
	prof := topology.EPYC9634()
	eng := sim.New(3)
	net := core.New(eng, prof)
	ccd := func(n, count int) []topology.CoreID {
		var out []topology.CoreID
		for c := 0; c < count; c++ {
			out = append(out, topology.CoreID{CCD: n, Core: c})
		}
		return out
	}
	dram := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "dram", Cores: ccd(0, 7), Op: txn.Read,
		Kind: core.DestDRAM, UMCs: prof.UMCSet(topology.NPS1, 0),
	})
	cxl := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "cxl", Cores: ccd(1, 7), Op: txn.Read,
		Kind: core.DestCXL, Modules: []int{0, 1, 2, 3},
	})
	llc := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "llc", Cores: ccd(2, 7), Op: txn.Read,
		Kind: core.DestLLCIntra,
	})
	for _, f := range []*traffic.Flow{dram, cxl, llc} {
		f.Start()
	}
	eng.RunFor(30 * units.Microsecond)
	for _, f := range []*traffic.Flow{dram, cxl, llc} {
		f.ResetStats()
	}
	eng.RunFor(50 * units.Microsecond)

	if got := dram.Achieved().GBpsValue(); got < 31 || got > 37 {
		t.Errorf("DRAM flow %.1f GB/s, want ~35.2 (GMI cap, unaffected)", got)
	}
	if got := cxl.Achieved().GBpsValue(); got < 21 || got > 25 {
		t.Errorf("CXL flow %.1f GB/s, want ~23.7 (device credits)", got)
	}
	if got := llc.Achieved().GBpsValue(); got < 29 || got > 35 {
		t.Errorf("LLC flow %.1f GB/s, want ~33 (intra-CC cap)", got)
	}
}
