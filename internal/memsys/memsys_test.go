package memsys

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestJitterSampleStats(t *testing.T) {
	rng := sim.NewRNG(1)
	j := NewJitter(rng, 2*units.Nanosecond, 0.0015, 350*units.Nanosecond)
	const n = 200000
	var sum float64
	spikes := 0
	for i := 0; i < n; i++ {
		s := j.Sample()
		if s < 0 {
			t.Fatal("negative jitter")
		}
		if s > 300*units.Nanosecond {
			spikes++
		}
		sum += float64(s)
	}
	// Expected mean: 2ns + 0.0015*350ns = 2.525ns.
	mean := units.Time(sum / n)
	if mean < units.Nanos(2.2) || mean > units.Nanos(2.9) {
		t.Errorf("jitter mean = %v, want ~2.5ns", mean)
	}
	// Spike frequency ~0.15%.
	rate := float64(spikes) / n
	if rate < 0.0008 || rate > 0.0025 {
		t.Errorf("spike rate = %v, want ~0.0015", rate)
	}
}

func TestJitterZeroConfig(t *testing.T) {
	j := NewJitter(sim.NewRNG(1), 0, 0, 0)
	for i := 0; i < 100; i++ {
		if j.Sample() != 0 {
			t.Fatal("zero-configured jitter should sample 0")
		}
	}
}

func TestDRAMChannelCaps(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC9634()
	var d DRAMChannel
	d.Init(eng, p, 3, "umc3/rd", "umc3/wr")
	if d.Read.Capacity() != p.UMCReadCap || d.Write.Capacity() != p.UMCWriteCap {
		t.Error("channel capacities do not match the profile")
	}
	if d.Read.Name() != "umc3/rd" {
		t.Errorf("name = %q", d.Read.Name())
	}
	at := d.AccessTime()
	if at < p.DRAMLatency {
		t.Errorf("AccessTime %v below base %v", at, p.DRAMLatency)
	}
}

func TestCXLModule(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC9634()
	var m CXLModule
	m.Init(eng, p, 0, "cxl0/rd", "cxl0/wr")
	if m.FlitSize(units.CacheLine) != 68 {
		t.Errorf("FlitSize(64) = %v, want 68", m.FlitSize(units.CacheLine))
	}
	if m.FlitSize(128) != 136 {
		t.Errorf("FlitSize(128) = %v, want 136", m.FlitSize(128))
	}
	if m.FlitSize(65) != 136 {
		t.Errorf("FlitSize(65) = %v, want 136 (rounds up)", m.FlitSize(65))
	}
	if m.FlitSize(0) != 0 {
		t.Errorf("FlitSize(0) = %v", m.FlitSize(0))
	}
	if at := m.AccessTime(); at < p.CXLDeviceLatency {
		t.Errorf("AccessTime %v below base %v", at, p.CXLDeviceLatency)
	}
}

func TestCXLModulePanicsWithoutCXL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: 7302 has no CXL")
		}
	}()
	var m CXLModule
	m.Init(sim.New(1), topology.EPYC7302(), 0, "cxl0/rd", "cxl0/wr")
}

func TestInterleaverRoundRobin(t *testing.T) {
	iv := NewInterleaver([]int{2, 5, 7})
	want := []int{2, 5, 7, 2, 5, 7, 2}
	for i, w := range want {
		if got := iv.Next(); got != w {
			t.Fatalf("Next()[%d] = %d, want %d", i, got, w)
		}
	}
	if len(iv.Channels()) != 3 {
		t.Error("Channels() wrong")
	}
}

func TestInterleaverCopiesInput(t *testing.T) {
	set := []int{1, 2}
	iv := NewInterleaver(set)
	set[0] = 99
	if iv.Next() != 1 {
		t.Error("interleaver must copy its input set")
	}
}

func TestInterleaverPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInterleaver(nil)
}

func TestInterleaverEvenSpread(t *testing.T) {
	p := topology.EPYC7302()
	iv := NewInterleaver(p.UMCSet(topology.NPS1, 0))
	counts := make(map[int]int)
	for i := 0; i < 8000; i++ {
		counts[iv.Next()]++
	}
	for umc, n := range counts {
		if n != 1000 {
			t.Errorf("umc%d got %d of 8000 accesses, want exactly 1000", umc, n)
		}
	}
}
