// Windowed-metrics wiring for the network. The registry itself lives in
// internal/metrics; this file registers a probe set over every
// directional channel, token pool and memory device of a Network, so one
// AttachMetrics call instruments the stack end to end:
//
//   - family "link": per-chiplet GMI and intra-CC fabric directions —
//     utilization (busy-time delta), queue depth, accepted bytes/messages,
//     queue-wait time and backpressure refusals per window;
//   - family "mesh": the I/O die NoC read/write aggregates, same probes;
//   - family "memsys": UMC and CXL channel directions plus the DRAM
//     array / CXL module service occupancy;
//   - family "pool": every hardware token pool — outstanding (in-use)
//     tokens, stalled waiters and grant-wait time per window.
//
// All probes read counters the simulation already maintains, so
// attaching a registry adds nothing to any event path; the only runtime
// cost is the harvest tick itself (see the package comment in
// internal/metrics). Attach before running traffic and do not call
// ResetStats while harvesting — Start primes the counter baselines, and
// a mid-harvest reset would make one window's deltas negative.
package core

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/metrics"
)

// AttachMetrics registers windowed instruments for every channel, pool
// and device of the network. Attach at most once per registry, before
// the registry's Start.
func (n *Network) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		panic("core: nil metrics registry")
	}
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
		reg.Counter(fmt.Sprintf("umc%d/dram", d.Index), metrics.MetricService, "memsys", "ps",
			func() float64 { return float64(d.ServiceBusy()) })
	}
	for i := range n.cxls {
		m := &n.cxls[i]
		trackChannel(reg, "memsys", m.Read)
		trackChannel(reg, "memsys", m.Write)
		reg.Counter(fmt.Sprintf("cxl%d/dev", m.Index), metrics.MetricService, "memsys", "ps",
			func() float64 { return float64(m.ServiceBusy()) })
	}
	for _, p := range n.Pools() {
		trackPool(reg, "pool", p)
	}
}

// trackChannel registers one directional channel's probe set.
func trackChannel(reg *metrics.Registry, family string, ch *link.Channel) {
	res := ch.Name()
	reg.Counter(res, metrics.MetricBytes, family, "bytes",
		func() float64 { return float64(ch.Bytes()) })
	reg.Counter(res, metrics.MetricMsgs, family, "msgs",
		func() float64 { return float64(ch.Messages()) })
	reg.Counter(res, metrics.MetricBusy, family, "ps",
		func() float64 { return float64(ch.BusyTime()) })
	reg.Counter(res, metrics.MetricWait, family, "ps",
		func() float64 { return float64(ch.QueueWaitTotal()) })
	reg.Counter(res, metrics.MetricRefused, family, "msgs",
		func() float64 { return float64(ch.Refused()) })
	reg.Gauge(res, metrics.MetricDepth, family, "msgs",
		func() float64 { return float64(ch.Queued()) })
}

// trackPool registers one token pool's probe set: in-use tokens
// (outstanding requests), blocked waiters, and cumulative grant-wait
// time — the §3.2 queueing the paper reports as "Max CCX Q"/"Max CCD Q",
// now visible per window.
func trackPool(reg *metrics.Registry, family string, p *link.TokenPool) {
	res := p.Name()
	reg.Gauge(res, metrics.MetricInUse, family, "tokens",
		func() float64 { return float64(p.InUse()) })
	reg.Gauge(res, metrics.MetricDepth, family, "waiters",
		func() float64 { return float64(p.Waiting()) })
	reg.Counter(res, metrics.MetricWait, family, "ps",
		func() float64 { return float64(p.WaitTotal()) })
	reg.Counter(res, metrics.MetricMsgs, family, "msgs",
		func() float64 { return float64(p.Grants()) })
}
