// Package mesh models the I/O chiplet's network-on-chip: the first level
// of the paper's link-layer hierarchy (Figure 2). Requests entering the
// I/O die traverse a cache-coherent master, a run of mesh switch hops
// (SHops), and a coherent station or I/O hub before reaching their target.
//
// The mesh is modelled as per-direction aggregate routing capacity (the
// whole-die ceiling that caps Table 3's "From CPU" rows) plus
// deterministic per-hop latency. Individual switch queues are not
// simulated — at the paper's loads the binding constraints are the
// die-level routing capacity and the per-link ceilings, which this model
// captures exactly, while a flit-level router sim would add events without
// changing any reported number.
package mesh

import (
	"fmt"
	"strings"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// NoC is the I/O die's routing fabric.
type NoC struct {
	prof *topology.Profile

	// memHops[ccd*UMCChannels+umc] and ioHops[ccd] are the switch-hop
	// delays from each chiplet to each memory channel and to the I/O hub,
	// built once (in one table) so the per-transaction lookups skip the
	// node geometry.
	memHops []units.Time
	ioHops  []units.Time

	// Read is the data-return direction (toward cores); Write the
	// data-out direction. Their capacities are the Table 3 "From CPU"
	// plateaus: the die's total routing capacity per direction.
	Read  *link.Channel
	Write *link.Channel
	dirs  [2]link.Channel // Read and Write point here

	// Trace hops for the fixed path stages the aggregate channels do not
	// see (valid only after AttachTracer): switch-hop runs, coherent
	// station, I/O hub, root complex.
	shopsHop, csHop, iohubHop, rootHop trace.HopID
}

// AttachTracer attaches the flight recorder to both NoC directions and
// registers the fixed path stages — switch hops, coherent station, I/O
// hub, root complex — as trace hops so the issuing layer can attribute
// deterministic stage delays to them.
func (n *NoC) AttachTracer(tr *trace.Tracer) {
	n.Read.SetTracer(tr)
	n.Write.SetTracer(tr)
	n.shopsHop = tr.RegisterHop("noc/shops", trace.KindStage)
	n.csHop = tr.RegisterHop("noc/cs", trace.KindStage)
	n.iohubHop = tr.RegisterHop("noc/iohub", trace.KindStage)
	n.rootHop = tr.RegisterHop("noc/rootcomplex", trace.KindStage)
}

// ShopsHop reports the switch-hop stage's trace hop.
func (n *NoC) ShopsHop() trace.HopID { return n.shopsHop }

// CSHop reports the coherent station stage's trace hop.
func (n *NoC) CSHop() trace.HopID { return n.csHop }

// IOHubHop reports the I/O hub stage's trace hop.
func (n *NoC) IOHubHop() trace.HopID { return n.iohubHop }

// RootHop reports the root complex stage's trace hop.
func (n *NoC) RootHop() trace.HopID { return n.rootHop }

// Init makes n the NoC of a profile in place. A NoC lives inside its
// platform's network and is not copied after Init: Read and Write point
// into it.
func (n *NoC) Init(eng *sim.Engine, p *topology.Profile) {
	hops := make([]units.Time, p.CCDs*(p.UMCChannels+1))
	*n = NoC{prof: p, memHops: hops[:p.CCDs*p.UMCChannels], ioHops: hops[p.CCDs*p.UMCChannels:]}
	n.Read, n.Write = &n.dirs[0], &n.dirs[1]
	n.Read.Init(eng, "noc/rd", p.NoCReadCap, 0, p.NoCReadQueue)
	n.Write.Init(eng, "noc/wr", p.NoCWriteCap, 0, p.NoCWriteQueue)
	for ccd := 0; ccd < p.CCDs; ccd++ {
		for umc := 0; umc < p.UMCChannels; umc++ {
			n.memHops[ccd*p.UMCChannels+umc] = n.HopDelay(p.MemoryHops(ccd, umc))
		}
		n.ioHops[ccd] = n.HopDelay(p.IOHubHops(ccd))
	}
}

// HopDelay reports the deterministic latency of traversing the given
// number of switch hops.
func (n *NoC) HopDelay(hops int) units.Time {
	return units.Time(hops) * n.prof.SHopLatency
}

// MemoryHopDelay reports the switch-hop latency from chiplet ccd to memory
// channel umc.
func (n *NoC) MemoryHopDelay(ccd, umc int) units.Time {
	return n.memHops[ccd*n.prof.UMCChannels+umc]
}

// IOHopDelay reports the switch-hop latency from chiplet ccd to the I/O
// hub.
func (n *NoC) IOHopDelay(ccd int) units.Time { return n.ioHops[ccd] }

// Segment is one named leg of a data path with its deterministic latency:
// the decomposition view of the paper's Table 2.
type Segment struct {
	Name    string
	Latency units.Time
}

// Route is an ordered list of path segments.
type Route []Segment

// Total reports the summed deterministic latency of the route.
func (r Route) Total() units.Time {
	var t units.Time
	for _, s := range r {
		t += s.Latency
	}
	return t
}

// String renders the route as "a(1ns) -> b(2ns) = 3ns".
func (r Route) String() string {
	var b strings.Builder
	for i, s := range r {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s(%v)", s.Name, s.Latency)
	}
	fmt.Fprintf(&b, " = %v", r.Total())
	return b.String()
}

// meanJitter reports the expected per-access service jitter: the
// exponential mean plus the spike contribution.
func meanJitter(p *topology.Profile) units.Time {
	return p.DRAMJitterMean + units.Time(p.TailSpikeProb*float64(p.TailSpikeDelay))
}

// MemoryRoute decomposes the unloaded read path from a core on chiplet ccd
// to memory channel umc: the Table 2 breakdown (CCM, SHops, CS, UMC+DRAM)
// plus the serialization time of the request and response messages on each
// link they cross.
func MemoryRoute(p *topology.Profile, ccd, umc int) Route {
	hops := p.MemoryHops(ccd, umc)
	reqSer := p.GMIWriteCap.TimeToSend(p.ReadRequestSize) +
		p.NoCWriteCap.TimeToSend(p.ReadRequestSize)
	respSer := p.UMCReadCap.TimeToSend(units.CacheLine) +
		p.NoCReadCap.TimeToSend(units.CacheLine) +
		p.GMIReadCap.TimeToSend(units.CacheLine)
	return Route{
		{Name: "l3-miss+ccm", Latency: p.CacheMissBase},
		{Name: "gmi", Latency: p.GMILinkLatency},
		{Name: fmt.Sprintf("shops[%d]", hops), Latency: units.Time(hops) * p.SHopLatency},
		{Name: "cs", Latency: p.CSLatency},
		{Name: "umc+dram", Latency: p.DRAMLatency + meanJitter(p)},
		{Name: "serialization", Latency: reqSer + respSer},
	}
}

// CXLRoute decomposes the unloaded read path from a core on chiplet ccd to
// a CXL module: through the I/O hub, root complex and P link (§3.2's
// device path), with the data response riding a 68 B flit.
func CXLRoute(p *topology.Profile, ccd int) Route {
	hops := p.IOHubHops(ccd)
	flit := p.CXLFlitSize
	reqSer := p.GMIWriteCap.TimeToSend(p.ReadRequestSize) +
		p.NoCWriteCap.TimeToSend(p.ReadRequestSize) +
		p.PLinkWriteCap.TimeToSend(p.ReadRequestSize)
	respSer := p.PLinkReadCap.TimeToSend(flit) +
		p.NoCReadCap.TimeToSend(units.CacheLine) +
		p.GMIReadCap.TimeToSend(units.CacheLine)
	return Route{
		{Name: "l3-miss+ccm", Latency: p.CacheMissBase},
		{Name: "gmi", Latency: p.GMILinkLatency},
		{Name: fmt.Sprintf("shops[%d]", hops), Latency: units.Time(hops) * p.SHopLatency},
		{Name: "iohub", Latency: p.IOHubLatency},
		{Name: "rootcomplex", Latency: p.RootComplexLatency},
		{Name: "plink", Latency: p.PLinkLatency},
		{Name: "cxl-dev", Latency: p.CXLDeviceLatency + meanJitter(p)},
		{Name: "serialization", Latency: reqSer + respSer},
	}
}

// IntraCCRoute decomposes a cache-to-cache transfer within one compute
// chiplet (Fig 3-a/b traffic).
func IntraCCRoute(p *topology.Profile) Route {
	return Route{{Name: "if-intra-cc", Latency: p.IntraCCLatency}}
}

// InterCCRoute decomposes a cache-to-cache transfer between compute
// chiplets through the I/O die (Fig 3-c traffic).
func InterCCRoute(p *topology.Profile) Route {
	return Route{{Name: "if-inter-cc", Latency: p.InterCCLatency}}
}
