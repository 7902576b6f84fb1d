package trafficmgr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

func gbps(v float64) units.Bandwidth { return units.GBps(v) }

func approx(a, b units.Bandwidth, tol float64) bool {
	return math.Abs(a.GBpsValue()-b.GBpsValue()) <= tol
}

func TestAllocateUndersubscribed(t *testing.T) {
	// Everyone below capacity gets their demand.
	got := Allocate([]FlowSpec{
		{Demand: gbps(6), Resources: []int{0}},
		{Demand: gbps(10), Resources: []int{0}},
	}, []units.Bandwidth{gbps(20)})
	if !approx(got[0], gbps(6), 0.01) || !approx(got[1], gbps(10), 0.01) {
		t.Errorf("alloc = %v", got)
	}
}

func TestAllocateEqualSplit(t *testing.T) {
	got := Allocate([]FlowSpec{
		{Demand: gbps(30), Resources: []int{0}},
		{Demand: gbps(30), Resources: []int{0}},
	}, []units.Bandwidth{gbps(20)})
	if !approx(got[0], gbps(10), 0.05) || !approx(got[1], gbps(10), 0.05) {
		t.Errorf("alloc = %v", got)
	}
}

func TestAllocateMaxMinHonorsSmallDemand(t *testing.T) {
	// The fix for Fig 4 case 2: the modest flow gets its full demand,
	// the aggressor only the remainder — not the other way around.
	got := Allocate([]FlowSpec{
		{Demand: gbps(6), Resources: []int{0}},
		{Demand: gbps(50), Resources: []int{0}},
	}, []units.Bandwidth{gbps(20)})
	if !approx(got[0], gbps(6), 0.05) {
		t.Errorf("modest flow alloc = %v, want its demand 6", got[0])
	}
	if !approx(got[1], gbps(14), 0.1) {
		t.Errorf("aggressor alloc = %v, want the remainder 14", got[1])
	}
}

func TestAllocateUnboundedDemands(t *testing.T) {
	got := Allocate([]FlowSpec{
		{Resources: []int{0}},
		{Resources: []int{0}},
		{Resources: []int{0}},
	}, []units.Bandwidth{gbps(30)})
	for i, a := range got {
		if !approx(a, gbps(10), 0.05) {
			t.Errorf("flow %d alloc = %v, want 10", i, a)
		}
	}
}

func TestAllocateMultiResource(t *testing.T) {
	// Flow 0 crosses both links; flow 1 only the second. Link 0 caps
	// flow 0 at 8; flow 1 then takes the rest of link 1.
	got := Allocate([]FlowSpec{
		{Resources: []int{0, 1}},
		{Resources: []int{1}},
	}, []units.Bandwidth{gbps(8), gbps(30)})
	if !approx(got[0], gbps(8), 0.1) {
		t.Errorf("flow 0 = %v, want 8 (link-0 bound)", got[0])
	}
	if !approx(got[1], gbps(22), 0.1) {
		t.Errorf("flow 1 = %v, want 22 (residual of link 1)", got[1])
	}
}

func TestAllocateNoFlows(t *testing.T) {
	if got := Allocate(nil, []units.Bandwidth{gbps(10)}); len(got) != 0 {
		t.Errorf("alloc of no flows = %v", got)
	}
}

func TestAllocatePanicsOnBadResource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Allocate([]FlowSpec{{Resources: []int{5}}}, []units.Bandwidth{gbps(10)})
}

// Properties: allocations never exceed demand, never oversubscribe a
// resource, and are work-conserving for a single resource (the full
// capacity is used whenever aggregate demand allows).
func TestAllocateProperties(t *testing.T) {
	f := func(demandsRaw []uint16, capRaw uint32) bool {
		if len(demandsRaw) == 0 || len(demandsRaw) > 12 {
			return true
		}
		cap := units.Bandwidth(uint64(capRaw)%uint64(40*units.GB) + uint64(units.GB))
		flows := make([]FlowSpec, len(demandsRaw))
		var total units.Bandwidth
		for i, d := range demandsRaw {
			flows[i] = FlowSpec{
				Demand:    units.Bandwidth(d) * units.Bandwidth(units.MB),
				Resources: []int{0},
			}
			total += flows[i].Demand
		}
		got := Allocate(flows, []units.Bandwidth{cap})
		var sum units.Bandwidth
		for i, a := range got {
			if flows[i].Demand > 0 && a > flows[i].Demand+units.Bandwidth(units.KB) {
				return false
			}
			if a < 0 {
				return false
			}
			sum += a
		}
		if sum > cap+units.Bandwidth(units.MB) {
			return false
		}
		want := total
		if cap < want {
			want = cap
		}
		// Work conservation within rounding slack.
		return sum >= want-units.Bandwidth(len(flows))*units.Bandwidth(units.MB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestManagerLifecycle(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC7302()
	net := core.New(eng, p)
	mk := func(name string, ccx int, demand float64) *traffic.Flow {
		return traffic.MustFlow(net, traffic.FlowConfig{
			Name: name, Op: txn.Read, Kind: core.DestDRAM, UMCs: []int{0},
			Cores: []topology.CoreID{
				{CCD: 0, CCX: ccx, Core: 0}, {CCD: 0, CCX: ccx, Core: 1}},
			Demand: units.GBps(demand),
		})
	}
	fa := mk("A", 0, 6)
	fb := mk("B", 1, 30)

	m := New(eng)
	m.AddResource("umc0/rd", p.UMCReadCap)
	if err := m.Register(fa, "umc0/rd"); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(fb, "umc0/rd"); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(fb, "nope"); err == nil {
		t.Fatal("unknown resource should be rejected")
	}
	if err := m.Register(nil, "umc0/rd"); err == nil {
		t.Fatal("nil flow should be rejected")
	}
	if err := m.Register(fb); err == nil {
		t.Fatal("no resources should be rejected")
	}

	fa.Start()
	fb.Start()
	m.Start()
	eng.RunFor(50 * units.Microsecond)
	fa.ResetStats()
	fb.ResetStats()
	eng.RunFor(100 * units.Microsecond)

	// Under max-min management, the modest flow gets its full demand and
	// the aggressor is limited to the residual 21.1-6 = 15.1.
	a, b := fa.Achieved().GBpsValue(), fb.Achieved().GBpsValue()
	if a < 5.4 || a > 6.6 {
		t.Errorf("managed modest flow = %.1f GB/s, want ~6", a)
	}
	if b < 13.5 || b > 16.2 {
		t.Errorf("managed aggressor = %.1f GB/s, want ~15.1", b)
	}

	allocs := m.Allocations()
	if !approx(allocs["A"], gbps(6), 0.2) {
		t.Errorf("allocation A = %v", allocs["A"])
	}
	if got := m.Resources(); len(got) != 1 || got[0] != "umc0/rd" {
		t.Errorf("Resources = %v", got)
	}

	m.Stop()
	if fa.RateLimit() != 0 || fb.RateLimit() != 0 {
		t.Error("Stop should clear rate limits")
	}
}

func TestManagerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil engine: expected panic")
		}
	}()
	New(nil)
}
