// Windowed-metrics wiring for the network. The registry itself lives in
// internal/metrics; this file registers a probe set over every
// directional channel, token pool and memory device of a Network, so one
// AttachMetrics call instruments the stack end to end:
//
//   - family "link": per-chiplet GMI and intra-CC fabric directions —
//     accepted bytes and messages, busy time (utilization), queue-wait
//     time, backpressure refusals and queue depth per window;
//   - family "mesh": the I/O die NoC read/write aggregates, same probes;
//   - family "memsys": UMC and CXL channel directions, same probes, plus
//     the DRAM array / CXL module service occupancy;
//   - family "pool": every hardware token pool — outstanding (in-use)
//     tokens, stalled waiters, grant-wait time and grants per window.
//
// Each probe is the component itself viewed through a named type whose
// Sample reads one of the counters the simulation already maintains, so
// registering it converts a pointer and allocates nothing, and attaching
// a registry adds nothing to any event path; the only runtime cost is
// the harvest tick itself (see the package comment in internal/metrics).
// Attach before running traffic and do not call ResetStats while
// harvesting — Start primes the counter baselines, and a mid-harvest
// reset would make one window's deltas negative.
package core

import (
	"strings"

	"repro/internal/link"
	"repro/internal/memsys"
	"repro/internal/metrics"
)

// AttachMetrics registers windowed instruments for every channel, pool
// and device of the network. Attach at most once per registry, before
// the registry's Start. It sizes the registry's tables once and builds
// the device resource names in one string.
func (n *Network) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		panic("core: nil metrics registry")
	}
	umcs, cxls := len(n.drams), len(n.cxls)
	channels := 2 + 4*n.prof.CCDs + 2*(umcs+cxls)
	reg.Reserve(chanInstruments*channels + umcs + cxls + poolInstruments*len(n.pools))
	var names strings.Builder
	names.Grow(nameBytes("umc", umcs, "/dram") + nameBytes("cxl", cxls, "/dev"))

	trackChannel(reg, "mesh", n.noc.Read)
	trackChannel(reg, "mesh", n.noc.Write)
	for c := 0; c < n.prof.CCDs; c++ {
		trackChannel(reg, "link", &n.gmiIn[c])
		trackChannel(reg, "link", &n.gmiOut[c])
		trackChannel(reg, "link", &n.intraIn[c])
		trackChannel(reg, "link", &n.intraOut[c])
	}
	for i := range n.drams {
		d := &n.drams[i]
		trackChannel(reg, "memsys", d.Read)
		trackChannel(reg, "memsys", d.Write)
		reg.Counter(name(&names, "umc", d.Index, "/dram"), metrics.MetricService, "memsys", "ps",
			(*dramService)(d))
	}
	for i := range n.cxls {
		m := &n.cxls[i]
		trackChannel(reg, "memsys", m.Read)
		trackChannel(reg, "memsys", m.Write)
		reg.Counter(name(&names, "cxl", m.Index, "/dev"), metrics.MetricService, "memsys", "ps",
			(*cxlService)(m))
	}
	for i := range n.pools {
		trackPool(reg, "pool", &n.pools[i])
	}
}

// Instruments per channel and per pool, as trackChannel and trackPool
// register them.
const (
	chanInstruments = 6
	poolInstruments = 4
)

// trackChannel registers one directional channel's probe set.
func trackChannel(reg *metrics.Registry, family string, ch *link.Channel) {
	res := ch.Name()
	reg.Counter(res, metrics.MetricBytes, family, "bytes", (*chanBytes)(ch))
	reg.Counter(res, metrics.MetricMsgs, family, "msgs", (*chanMsgs)(ch))
	reg.Counter(res, metrics.MetricBusy, family, "ps", (*chanBusy)(ch))
	reg.Counter(res, metrics.MetricWait, family, "ps", (*chanWait)(ch))
	reg.Counter(res, metrics.MetricRefused, family, "msgs", (*chanRefused)(ch))
	reg.Gauge(res, metrics.MetricDepth, family, "msgs", (*chanDepth)(ch))
}

// trackPool registers one token pool's probe set: in-use tokens
// (outstanding requests), blocked waiters, cumulative grant-wait time —
// the §3.2 queueing the paper reports as "Max CCX Q"/"Max CCD Q", now
// visible per window — and grants.
func trackPool(reg *metrics.Registry, family string, p *link.TokenPool) {
	res := p.Name()
	reg.Gauge(res, metrics.MetricInUse, family, "tokens", (*poolInUse)(p))
	reg.Gauge(res, metrics.MetricDepth, family, "waiters", (*poolDepth)(p))
	reg.Counter(res, metrics.MetricWait, family, "ps", (*poolWait)(p))
	reg.Counter(res, metrics.MetricMsgs, family, "msgs", (*poolGrants)(p))
}

// The typed probes: each views a component through a named type whose
// Sample reads one counter.
type (
	chanBytes   link.Channel
	chanMsgs    link.Channel
	chanBusy    link.Channel
	chanWait    link.Channel
	chanRefused link.Channel
	chanDepth   link.Channel
	poolInUse   link.TokenPool
	poolDepth   link.TokenPool
	poolWait    link.TokenPool
	poolGrants  link.TokenPool
	dramService memsys.DRAMChannel
	cxlService  memsys.CXLModule
)

func (c *chanBytes) Sample() float64   { return float64((*link.Channel)(c).Bytes()) }
func (c *chanMsgs) Sample() float64    { return float64((*link.Channel)(c).Messages()) }
func (c *chanBusy) Sample() float64    { return float64((*link.Channel)(c).BusyTime()) }
func (c *chanWait) Sample() float64    { return float64((*link.Channel)(c).QueueWaitTotal()) }
func (c *chanRefused) Sample() float64 { return float64((*link.Channel)(c).Refused()) }
func (c *chanDepth) Sample() float64   { return float64((*link.Channel)(c).Queued()) }
func (p *poolInUse) Sample() float64   { return float64((*link.TokenPool)(p).InUse()) }
func (p *poolDepth) Sample() float64   { return float64((*link.TokenPool)(p).Waiting()) }
func (p *poolWait) Sample() float64    { return float64((*link.TokenPool)(p).WaitTotal()) }
func (p *poolGrants) Sample() float64  { return float64((*link.TokenPool)(p).Grants()) }
func (d *dramService) Sample() float64 { return float64((*memsys.DRAMChannel)(d).ServiceBusy()) }
func (m *cxlService) Sample() float64  { return float64((*memsys.CXLModule)(m).ServiceBusy()) }
