// Package memsys models the memory side of the chiplet network: unified
// memory controllers (UMCs) with their DDR channels, and CXL.mem expansion
// modules behind the P links. Each component owns directional channels
// whose capacities are the Table 3 per-controller ceilings, plus a service
// time model whose jitter produces the latency tails of Figure 3.
package memsys

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Jitter samples memory service-time variation: a small exponential
// component (bank conflicts, scheduling) plus a rare large spike (refresh
// collisions). It gives the latency distribution the long tail the paper
// reports as P999.
type Jitter struct {
	rng   *sim.RNG
	mean  units.Time
	prob  float64
	spike units.Time
}

// NewJitter builds a jitter source from profile constants. It returns a
// value so that devices can hold their jitter inline.
func NewJitter(rng *sim.RNG, mean units.Time, spikeProb float64, spike units.Time) Jitter {
	if rng == nil {
		panic("memsys: nil RNG")
	}
	return Jitter{rng: rng, mean: mean, prob: spikeProb, spike: spike}
}

// profileJitter is the service jitter every memory device of p samples.
func profileJitter(eng *sim.Engine, p *topology.Profile) Jitter {
	return NewJitter(eng.Rand(), p.DRAMJitterMean, p.TailSpikeProb, p.TailSpikeDelay)
}

// Sample draws one service-time perturbation.
func (j *Jitter) Sample() units.Time {
	var d units.Time
	if j.mean > 0 {
		d += units.Time(float64(j.mean) * j.rng.ExpFloat64())
	}
	if j.prob > 0 && j.rng.Float64() < j.prob {
		d += j.spike
	}
	return d
}

// DRAMChannel is one UMC and its DDR channel: directional bandwidth caps
// (Table 3: 21.1/19.0 GB/s on the 7302, 34.9/28.3 on the 9634) and the
// DRAM array access time.
type DRAMChannel struct {
	Index int
	Read  *link.Channel // data return toward the cores
	Write *link.Channel // data in from the cores

	dirs        [2]link.Channel // Read and Write point here
	base        units.Time
	jitter      Jitter
	serviceBusy units.Time  // cumulative sampled array service time
	serviceHop  trace.HopID // DRAM array service stage (after AttachTracer)
}

// AttachTracer attaches the flight recorder to both UMC directions and
// registers the DRAM array itself as a service hop named service
// ("umcN/dram").
func (d *DRAMChannel) AttachTracer(tr *trace.Tracer, service string) {
	d.Read.SetTracer(tr)
	d.Write.SetTracer(tr)
	d.serviceHop = tr.RegisterHop(service, trace.KindDevice)
}

// ServiceHop reports the DRAM array's trace hop (valid only after
// AttachTracer).
func (d *DRAMChannel) ServiceHop() trace.HopID { return d.serviceHop }

// Init makes d UMC index of profile p in place, its directions named rd
// and wr. A platform keeps its UMCs in one slab, their channels inline;
// a DRAMChannel is not copied after Init, since Read and Write point into
// it.
func (d *DRAMChannel) Init(eng *sim.Engine, p *topology.Profile, index int, rd, wr string) {
	*d = DRAMChannel{Index: index, base: p.DRAMLatency, jitter: profileJitter(eng, p)}
	d.Read, d.Write = &d.dirs[0], &d.dirs[1]
	d.Read.Init(eng, rd, p.UMCReadCap, 0, 0)
	d.Write.Init(eng, wr, p.UMCWriteCap, 0, 0)
}

// AccessTime samples the DRAM array access latency for one request.
func (d *DRAMChannel) AccessTime() units.Time {
	t := d.base + d.jitter.Sample()
	d.serviceBusy += t
	return t
}

// ServiceBusy reports the cumulative sampled array service time — the
// UMC's service-occupancy signal for the windowed metrics pipeline,
// differenced per harvest window.
func (d *DRAMChannel) ServiceBusy() units.Time { return d.serviceBusy }

// CXLModule is one CXL.mem expansion device behind a P link. Its channels
// carry 68 B flits per 64 B payload (§2.3), and its access time covers the
// CXL controller plus far-memory array.
type CXLModule struct {
	Index int
	Read  *link.Channel // P link + CXL lanes toward the cores
	Write *link.Channel

	dirs        [2]link.Channel // Read and Write point here
	flit        units.ByteSize
	base        units.Time
	jitter      Jitter
	serviceBusy units.Time  // cumulative sampled module service time
	serviceHop  trace.HopID // module-internal service stage (after AttachTracer)
	plinkHop    trace.HopID // P-link propagation stage (after AttachTracer)
}

// AttachTracer attaches the flight recorder to both module directions and
// registers the module's internal service and the P-link propagation as
// trace hops named service and plink ("cxlN/dev", "cxlN/plink").
func (m *CXLModule) AttachTracer(tr *trace.Tracer, service, plink string) {
	m.Read.SetTracer(tr)
	m.Write.SetTracer(tr)
	m.serviceHop = tr.RegisterHop(service, trace.KindDevice)
	m.plinkHop = tr.RegisterHop(plink, trace.KindStage)
}

// ServiceHop reports the module's internal-service trace hop (valid only
// after AttachTracer).
func (m *CXLModule) ServiceHop() trace.HopID { return m.serviceHop }

// PLinkHop reports the P-link propagation trace hop (valid only after
// AttachTracer).
func (m *CXLModule) PLinkHop() trace.HopID { return m.plinkHop }

// Init makes m CXL module index of profile p in place, its directions
// named rd and wr; like a DRAMChannel, m is not copied afterwards. The
// profile must actually have CXL modules.
func (m *CXLModule) Init(eng *sim.Engine, p *topology.Profile, index int, rd, wr string) {
	if p.CXLModules == 0 {
		panic(fmt.Sprintf("memsys: profile %s has no CXL modules", p.Name))
	}
	*m = CXLModule{Index: index, flit: p.CXLFlitSize, base: p.CXLDeviceLatency,
		jitter: profileJitter(eng, p)}
	m.Read, m.Write = &m.dirs[0], &m.dirs[1]
	m.Read.Init(eng, rd, p.PLinkReadCap, 0, 0)
	m.Write.Init(eng, wr, p.PLinkWriteCap, 0, 0)
}

// FlitSize reports the wire size of a payload: full CXL flits, rounded up
// (§2.3: a cacheline rides one 68 B flit).
func (m *CXLModule) FlitSize(payload units.ByteSize) units.ByteSize {
	if payload <= 0 {
		return 0
	}
	flits := (payload + units.CacheLine - 1) / units.CacheLine
	return flits * m.flit
}

// AccessTime samples the module's internal access latency.
func (m *CXLModule) AccessTime() units.Time {
	t := m.base + m.jitter.Sample()
	m.serviceBusy += t
	return t
}

// ServiceBusy reports the cumulative sampled module service time — the
// CXL device's service-occupancy signal for the windowed metrics
// pipeline.
func (m *CXLModule) ServiceBusy() units.Time { return m.serviceBusy }

// Interleaver spreads consecutive cacheline requests across a set of
// memory channels, as the memory controller's address hash does for an
// NPS-interleaved allocation.
type Interleaver struct {
	set  []int
	next int
}

// NewInterleaver builds an interleaver over the channel set (from
// topology.Profile.UMCSet). The set must be non-empty.
func NewInterleaver(set []int) *Interleaver {
	if len(set) == 0 {
		panic("memsys: empty interleave set")
	}
	s := make([]int, len(set))
	copy(s, set)
	return &Interleaver{set: s}
}

// Next reports the channel for the next cacheline.
func (iv *Interleaver) Next() int {
	c := iv.set[iv.next]
	iv.next = (iv.next + 1) % len(iv.set)
	return c
}

// Channels reports the interleave set (not a copy; do not mutate).
func (iv *Interleaver) Channels() []int { return iv.set }
