package accel

import (
	"slices"
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

// TestSubmitPinned pins one DMA-in, execute, DMA-out kernel on both lanes:
// all six phase stamps and the message and byte counts of every channel
// that carried its traffic. The values were captured from the closure-chain
// model that the walker path replaced.
func TestSubmitPinned(t *testing.T) {
	type count struct {
		name     string
		messages uint64
		bytes    units.ByteSize
	}
	shared := []count{
		{"noc/rd", 1, 16},
		{"noc/wr", 33, 131088},
		{"ccd0/gmi/in", 1, 8},
		{"ccd0/gmi/out", 1, 16},
		{"umc1/rd", 16, 65536},
		{"umc2/wr", 16, 65536},
	}
	cases := []struct {
		priority bool
		stamps   Completion
		counts   []count
	}{
		{false, Completion{0, 63398, 2946571, 3946571, 6857115, 6870053}, append(shared,
			count{"accel0/todev", 17, 65552},
			count{"accel0/tohost", 17, 65552})},
		{true, Completion{0, 73398, 2956571, 3956571, 6867115, 6890053}, append(shared,
			count{"accel0/todev", 16, 65536},
			count{"accel0/tohost", 16, 65536},
			count{"accel0/ctl/todev", 1, 16},
			count{"accel0/ctl/tohost", 1, 16})},
	}
	for _, tc := range cases {
		net, a := newAccel(tc.priority)
		var got Completion
		a.Submit(topology.CoreID{}, Kernel{Exec: units.Microsecond,
			DMAIn: 64 * units.KiB, InputUMC: 1, DMAOut: 64 * units.KiB, OutputUMC: 2},
			func(c Completion) { got = c })
		net.Engine().Run()
		if got != tc.stamps {
			t.Errorf("priority %v: stamps %+v, want %+v", tc.priority, got, tc.stamps)
		}
		chs := append(net.Channels(), a.toDev, a.toHost)
		if tc.priority {
			chs = append(chs, a.ctlToDev, a.ctlToHost)
		}
		var counts []count
		for _, ch := range chs {
			if ch.Messages() > 0 {
				counts = append(counts, count{ch.Name(), ch.Messages(), ch.Bytes()})
			}
		}
		if !slices.Equal(counts, tc.counts) {
			t.Errorf("priority %v: channel counts\n%v\nwant\n%v", tc.priority, counts, tc.counts)
		}
	}
}

// submitKernels are the kernels the allocation gates run: one with no
// data plane, one that streams 64 KiB each way.
var submitKernels = []struct {
	name string
	k    Kernel
}{
	{"NoDMA", Kernel{Exec: units.Microsecond}},
	{"DMA64KiB", Kernel{Exec: units.Microsecond, DMAIn: 64 * units.KiB, InputUMC: 1,
		DMAOut: 64 * units.KiB, OutputUMC: 2}},
}

// TestSubmitAllocs holds a warm Submit, run to completion, to zero
// allocations: the doorbell, every DMA chunk and the completion record
// ride recycled walkers, and the kernel's phases a recycled frame.
func TestSubmitAllocs(t *testing.T) {
	for _, tc := range submitKernels {
		net, a := newAccel(false)
		run := func() {
			a.Submit(topology.CoreID{}, tc.k, nil)
			net.Engine().Run()
		}
		run()
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: a warm Submit makes %v allocations, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkSubmit times one kernel from doorbell to completion record on
// a warm accelerator; ci.sh holds it to 0 allocs/op.
func BenchmarkSubmit(b *testing.B) {
	for _, tc := range submitKernels {
		b.Run(tc.name, func(b *testing.B) {
			net, a := newAccel(false)
			a.Submit(topology.CoreID{}, tc.k, nil)
			net.Engine().Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Submit(topology.CoreID{}, tc.k, nil)
				net.Engine().Run()
			}
		})
	}
}
