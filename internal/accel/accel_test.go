package accel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func newAccel(priorityLane bool) (*core.Network, *Accelerator) {
	net := core.New(sim.New(9), topology.EPYC9634())
	return net, New(net, priorityLane)
}

func TestUnloadedDoorbellLatency(t *testing.T) {
	net, a := newAccel(false)
	var got Completion
	a.Submit(topology.CoreID{}, Kernel{Exec: units.Microsecond}, func(c Completion) {
		got = c
	})
	net.Engine().Run()
	// Doorbell: GMI + hop walk + hub + root complex + device link:
	// ~9 + 16 + 15 + 10 + 12 ≈ 62 ns plus serialization.
	d := got.DoorbellLatency()
	if d < 55*units.Nanosecond || d > 75*units.Nanosecond {
		t.Errorf("doorbell latency = %v, want ~62ns", d)
	}
	if got.Total() < units.Microsecond {
		t.Errorf("total %v must include the 1us execution", got.Total())
	}
	if got.Started < got.Accepted || got.Executed < got.Started || got.Notified < got.Drained {
		t.Errorf("phase ordering broken: %+v", got)
	}
}

func TestKernelSerialization(t *testing.T) {
	// Two kernels on the single execution engine run back to back.
	net, a := newAccel(false)
	var first, second Completion
	a.Submit(topology.CoreID{}, Kernel{Exec: 10 * units.Microsecond}, func(c Completion) { first = c })
	a.Submit(topology.CoreID{}, Kernel{Exec: 10 * units.Microsecond}, func(c Completion) { second = c })
	net.Engine().Run()
	if second.Started < first.Executed {
		t.Errorf("second kernel started (%v) before first finished (%v)",
			second.Started, first.Executed)
	}
}

func TestDMABandwidthBound(t *testing.T) {
	// A DMA-heavy kernel's input phase is bounded by the device link.
	net, a := newAccel(false)
	var c Completion
	vol := 4 * units.MB
	a.Submit(topology.CoreID{}, Kernel{Exec: units.Nanosecond, DMAIn: vol}, func(done Completion) { c = done })
	net.Engine().Run()
	span := c.Started - c.Accepted
	rate := units.Rate(vol, span)
	max := linkToDevCap.GBpsValue()
	if rate.GBpsValue() > max*1.02 || rate.GBpsValue() < max*0.75 {
		t.Errorf("DMA-in rate = %v, want close to the %v device link", rate, linkToDevCap)
	}
}

func TestBulkDMAInflatesSignalPlane(t *testing.T) {
	// Direction #4's problem statement: with a bulk transfer in flight,
	// doorbells queue behind data on the shared device path.
	run := func(background bool) units.Time {
		net, a := newAccel(false)
		if background {
			// A large streaming kernel occupies the data plane.
			a.Submit(topology.CoreID{}, Kernel{Exec: units.Nanosecond, DMAIn: 8 * units.MB}, nil)
			net.Engine().RunFor(20 * units.Microsecond) // mid-transfer
		}
		var c Completion
		a.Submit(topology.CoreID{}, Kernel{Exec: units.Nanosecond}, func(done Completion) { c = done })
		net.Engine().Run()
		return c.DoorbellLatency()
	}
	quiet := run(false)
	loaded := run(true)
	if loaded < quiet*2 {
		t.Errorf("bulk DMA should inflate doorbell latency: quiet %v, loaded %v", quiet, loaded)
	}
}

func TestPriorityLaneProtectsSignalPlane(t *testing.T) {
	// The mitigation (direction #4's intra-host switching): a dedicated
	// control lane keeps doorbells out of the data plane's queue, so bulk
	// DMA no longer inflates them.
	run := func(priority bool) units.Time {
		net, a := newAccel(priority)
		a.Submit(topology.CoreID{}, Kernel{Exec: units.Nanosecond, DMAIn: 8 * units.MB}, nil)
		net.Engine().RunFor(20 * units.Microsecond)
		var c Completion
		a.Submit(topology.CoreID{}, Kernel{Exec: units.Nanosecond}, func(done Completion) { c = done })
		net.Engine().Run()
		return c.DoorbellLatency()
	}
	shared := run(false)
	prioritized := run(true)
	if prioritized > 150*units.Nanosecond {
		t.Errorf("prioritized doorbell = %v under bulk DMA, want near-unloaded", prioritized)
	}
	if shared < prioritized*4 {
		t.Errorf("shared-lane doorbell (%v) should suffer vs priority lane (%v)", shared, prioritized)
	}
}

func TestQueueDepthBoundsInFlight(t *testing.T) {
	net, a := newAccel(false)
	// A two-entry submission queue makes the queueing visible.
	a.slots = link.NewTokenPool(net.Engine(), devName+"/sq", 2)
	completions := 0
	for i := 0; i < 6; i++ {
		a.Submit(topology.CoreID{}, Kernel{Exec: 5 * units.Microsecond}, func(Completion) { completions++ })
	}
	net.Engine().Run()
	if completions != 6 {
		t.Fatalf("completed %d of 6", completions)
	}
	if a.Totals().Count() != 6 {
		t.Errorf("totals histogram has %d entries", a.Totals().Count())
	}
	// With depth 2 and 5us kernels, the last kernel waits ~2 rounds.
	if a.Totals().Max() < 14*units.Microsecond {
		t.Errorf("queueing not visible: max total %v", a.Totals().Max())
	}
}

func TestConfigValidation(t *testing.T) {
	// Wrong-chiplet submission panics.
	_, a := newAccel(false)
	defer func() {
		if recover() == nil {
			t.Error("cross-chiplet submit should panic")
		}
	}()
	a.Submit(topology.CoreID{CCD: 3}, Kernel{}, nil)
}
