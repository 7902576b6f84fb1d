// Package core implements server chiplet networking: it assembles the
// topology, link, mesh, cache and memory-system substrates into an
// executable model of a chiplet server's intra-host network, and exposes
// the measurement API the experiments are built on.
//
// A Network owns, per the paper's Figure 1/2 architecture:
//
//   - per-compute-chiplet Infinity Fabric bundles (intra-CC directions)
//     and GMI bundles (to/from the I/O die);
//   - the I/O die NoC (aggregate routing capacity + switch-hop delays);
//   - unified memory controllers with DDR channels, and CXL modules
//     behind the I/O hub, root complex and P links;
//   - the hardware token pools of the compute chiplet's traffic-control
//     module (per-CCX, per-CCD, per-core MSHR/WCB windows, per-CCD device
//     credits).
//
// Transactions issued through Issue traverse the same sequence of
// micro-architectural modules the paper describes in §3.2 (CCM, switch
// hops, CS/I/O hub, UMC or CXL device), consuming directional link
// bandwidth at every leg, so the four idiosyncrasies — extended data
// paths, heterogeneous bandwidth domains, inconsistent BDP, and
// sender-driven aggressive partitioning — all emerge from the same
// mechanisms the hardware exhibits.
//
// One engine owns every component of a network. Parallelism lives a level
// up: independent experiment cells each build a private network and run
// concurrently (see internal/harness).
package core

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/units"
)

// Network is one chiplet server SoC's intra-host network.
type Network struct {
	eng  *sim.Engine
	prof *topology.Profile

	// llcJitter perturbs cache-to-cache transfers: snoop collisions and
	// coherence-directory variance give the IF latency distribution its
	// tail (Fig 3-a reports a 490 ns P999 at a 144.5 ns average).
	llcJitter *memsys.Jitter

	// Free lists for the per-transaction objects, and the id counter.
	txns   txn.Pool
	freeW  []*walker
	nextID uint64

	noc   *mesh.NoC
	drams []*memsys.DRAMChannel
	cxls  []*memsys.CXLModule

	// Per-CCD link bundles. "In" carries data toward the cores (read
	// responses, write acks), "Out" carries data away (write data, read
	// requests).
	gmiIn    []*link.Channel
	gmiOut   []*link.Channel
	intraIn  []*link.Channel
	intraOut []*link.Channel

	// Hardware traffic-control pools (§3.2).
	ccxTokens []*link.TokenPool // per CCX: index ccd*CCXPerCCD+ccx
	ccdTokens []*link.TokenPool // per CCD; nil when the profile has none
	devRead   []*link.TokenPool // per CCD, device-bound read credits
	devWrite  []*link.TokenPool // per CCD, device-bound write credits

	// Per-core MSHR/WCB windows, indexed by linear core id.
	readMSHRs []*link.TokenPool
	writeWCBs []*link.TokenPool
	llcWindow []*link.TokenPool
	cxlReads  []*link.TokenPool
	cxlWrites []*link.TokenPool

	// Hot-path flyweight, built once at construction: the hardware token
	// pool-set per (core, DestKind, Op-class) in acquisition order. Issue
	// never formats a string or appends a slice.
	poolSets [][]*link.TokenPool // core*numPoolSets + poolSetIndex

	// recycle is the free-list switch the determinism guard flips off to
	// prove pooling is invisible to results.
	recycle bool

	// Flight recorder (nil unless AttachTracer wired one in) and the
	// path-stage hops the issuing layer attributes to directly.
	tracer   *trace.Tracer
	ccmHops  []trace.HopID // per CCD: cache-miss handling + CCM
	llcHops  []trace.HopID // per CCD: remote LLC lookup
	ifHops   []trace.HopID // per CCD: intra-chiplet fabric slack
	interHop trace.HopID   // inter-chiplet fabric slack through the I/O die

	// The peer socket and this socket's side of the xGMI link pair (out:
	// requests and write data; in: read data and acks), set by Join.
	peer            *Network
	xgmiOut, xgmiIn *link.Channel
}

// New assembles a network for the profile on eng. It panics if the
// profile fails validation — a network built from a broken profile would
// silently produce garbage measurements.
func New(eng *sim.Engine, p *topology.Profile) *Network {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	n := &Network{eng: eng, prof: p, recycle: true}
	n.llcJitter = memsys.NewJitter(eng.Rand(), p.DRAMJitterMean,
		p.TailSpikeProb, p.TailSpikeDelay)
	n.noc = mesh.New(eng, p)
	for u := 0; u < p.UMCChannels; u++ {
		n.drams = append(n.drams, memsys.NewDRAMChannel(eng, p, u))
	}
	for m := 0; m < p.CXLModules; m++ {
		n.cxls = append(n.cxls, memsys.NewCXLModule(eng, p, m))
	}
	for c := 0; c < p.CCDs; c++ {
		name := fmt.Sprintf("ccd%d", c)
		n.gmiIn = append(n.gmiIn, link.NewChannel(eng, name+"/gmi/in",
			p.GMIReadCap, 0, 0))
		n.gmiOut = append(n.gmiOut, link.NewChannel(eng, name+"/gmi/out",
			p.GMIWriteCap, p.GMILinkLatency, p.GMIWriteQueue))
		n.intraIn = append(n.intraIn, link.NewChannel(eng, name+"/if/in",
			p.IntraCCReadCap, 0, 0))
		n.intraOut = append(n.intraOut, link.NewChannel(eng, name+"/if/out",
			p.IntraCCWriteCap, 0, p.IntraCCWriteQueue))
		if p.CCDTokens > 0 {
			n.ccdTokens = append(n.ccdTokens, link.NewTokenPool(eng,
				name+"/tokens", p.CCDTokens))
		}
		if p.CXLModules > 0 {
			n.devRead = append(n.devRead, link.NewTokenPool(eng,
				name+"/devcrd/rd", p.CCDDevReadCrd))
			n.devWrite = append(n.devWrite, link.NewTokenPool(eng,
				name+"/devcrd/wr", p.CCDDevWriteCrd))
		}
	}
	for x := 0; x < p.CCXs; x++ {
		n.ccxTokens = append(n.ccxTokens, link.NewTokenPool(eng,
			fmt.Sprintf("ccx%d/tokens", x), p.CCXTokens))
	}
	for c := 0; c < p.Cores; c++ {
		name := fmt.Sprintf("core%d", c)
		n.readMSHRs = append(n.readMSHRs, link.NewTokenPool(eng, name+"/mshr", p.CoreReadMSHRs))
		n.writeWCBs = append(n.writeWCBs, link.NewTokenPool(eng, name+"/wcb", p.CoreWriteWCBs))
		n.llcWindow = append(n.llcWindow, link.NewTokenPool(eng, name+"/llcwin", p.CoreLLCWindow))
		if p.CXLModules > 0 {
			n.cxlReads = append(n.cxlReads, link.NewTokenPool(eng, name+"/cxlrd", p.CoreCXLReads))
			n.cxlWrites = append(n.cxlWrites, link.NewTokenPool(eng, name+"/cxlwr", p.CoreCXLWrites))
		}
	}
	n.buildPoolSets()
	return n
}

// interHopBase is the inter-CC path's deterministic latency beyond the
// explicitly modelled legs (CCM, two GMI crossings, remote LLC lookup).
func interHopBase(p *topology.Profile) units.Time {
	base := p.InterCCLatency - p.CacheMissBase - 2*p.GMILinkLatency - p.L3Latency
	if base < 0 {
		base = 0
	}
	return base
}

// Join makes n one socket of a two-socket system: DestRemoteDRAM accesses
// issued on n reach peer's memory over n's side of the xGMI pair.
func (n *Network) Join(peer *Network, out, in *link.Channel) {
	if peer.eng != n.eng {
		panic("core: joined sockets must share one engine")
	}
	n.peer, n.xgmiOut, n.xgmiIn = peer, out, in
}

// numPoolSets is the pool-set slots per core: four destination kinds times
// two operation classes (demand read/RFO vs. non-temporal write). Remote
// DRAM shares DRAM's slots: it holds the same tokens.
const numPoolSets = 8

// poolSetIndex selects an access's slot within a core's pool-set block.
func poolSetIndex(a Access) int {
	kind := a.Kind
	if kind == DestRemoteDRAM {
		kind = DestDRAM
	}
	i := int(kind) * 2
	if a.Op == txn.NTWrite {
		i++
	}
	return i
}

// buildPoolSets precomputes, per (core, kind, op-class), the hardware token
// pools an access must hold in the global acquisition order (core window,
// CCX, CCD, device credits) that keeps the token graph deadlock-free.
func (n *Network) buildPoolSets() {
	p := n.prof
	n.poolSets = make([][]*link.TokenPool, p.Cores*numPoolSets)
	for ccd := 0; ccd < p.CCDs; ccd++ {
		for ccx := 0; ccx < p.CCXPerCCD(); ccx++ {
			for c := 0; c < p.CoresPerCCX(); c++ {
				idx := n.coreIndex(topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
				ccxPool := n.ccxTokens[ccd*p.CCXPerCCD()+ccx]
				base := idx * numPoolSets
				dramRW := []*link.TokenPool{n.readMSHRs[idx], ccxPool}
				dramNT := []*link.TokenPool{n.writeWCBs[idx], ccxPool}
				if n.ccdTokens != nil {
					dramRW = append(dramRW, n.ccdTokens[ccd])
					dramNT = append(dramNT, n.ccdTokens[ccd])
				}
				n.poolSets[base+int(DestDRAM)*2] = dramRW
				n.poolSets[base+int(DestDRAM)*2+1] = dramNT
				if p.CXLModules > 0 {
					n.poolSets[base+int(DestCXL)*2] = []*link.TokenPool{n.cxlReads[idx], n.devRead[ccd]}
					n.poolSets[base+int(DestCXL)*2+1] = []*link.TokenPool{n.cxlWrites[idx], n.devWrite[ccd]}
				}
				intra := []*link.TokenPool{n.llcWindow[idx]}
				n.poolSets[base+int(DestLLCIntra)*2] = intra
				n.poolSets[base+int(DestLLCIntra)*2+1] = intra
				inter := []*link.TokenPool{n.llcWindow[idx], ccxPool}
				n.poolSets[base+int(DestLLCInter)*2] = inter
				n.poolSets[base+int(DestLLCInter)*2+1] = inter
			}
		}
	}
}

// SetRecycling toggles the transaction and walker free lists. Recycling is
// on by default; with it off every Issue allocates fresh objects. Results
// are identical either way — the determinism guard test relies on that.
func (n *Network) SetRecycling(on bool) { n.recycle = on }

// Recycling reports whether free-list reuse is enabled.
func (n *Network) Recycling() bool { return n.recycle }

// SetExpress does nothing: every hop runs as a calendar event. It stays
// only because the frozen benchmark module calls it; the next benchmark
// change drops that call and deletes this stub.
func (n *Network) SetExpress(bool) {}

// Engine reports the simulation engine driving the network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// EventsExecuted reports the simulation events the network's engine has
// run — the work counter cell-throughput benchmarks divide by seconds.
func (n *Network) EventsExecuted() uint64 { return n.eng.Executed() }

// EventsFused reports the departure events elided by channel stamp rings:
// one per message, writebacks included, recorded as a stamp instead of
// being dispatched. EventsExecuted + EventsFused is the classic event
// count of the same run, except that a depart is counted when its message
// is sent: a run stopped with messages still serializing counts those
// departs too.
func (n *Network) EventsFused() uint64 { return n.eng.Fused() }

// Profile reports the platform profile the network was built from.
func (n *Network) Profile() *topology.Profile { return n.prof }

// DRAM reports memory channel umc.
func (n *Network) DRAM(umc int) *memsys.DRAMChannel { return n.drams[umc] }

// CXLModule reports CXL module m.
func (n *Network) CXLModule(m int) *memsys.CXLModule { return n.cxls[m] }

// NoC reports the I/O die routing fabric.
func (n *Network) NoC() *mesh.NoC { return n.noc }

// GMIIn and GMIOut report the per-chiplet GMI channel directions.
func (n *Network) GMIIn(ccd int) *link.Channel  { return n.gmiIn[ccd] }
func (n *Network) GMIOut(ccd int) *link.Channel { return n.gmiOut[ccd] }

// CCXTokens reports the token pool of a core complex.
func (n *Network) CCXTokens(id topology.CCXID) *link.TokenPool {
	return n.ccxTokens[id.CCD*n.prof.CCXPerCCD()+id.CCX]
}

// CCDTokens reports the per-chiplet token pool, nil when the platform has
// no second token stage (EPYC 9634).
func (n *Network) CCDTokens(ccd int) *link.TokenPool {
	if n.ccdTokens == nil {
		return nil
	}
	return n.ccdTokens[ccd]
}

// coreIndex flattens a CoreID to a linear index.
func (n *Network) coreIndex(id topology.CoreID) int {
	return id.CCD*n.prof.CoresPerCCD() + id.CCX*n.prof.CoresPerCCX() + id.Core
}

// ReadMSHRs reports a core's demand-read window pool.
func (n *Network) ReadMSHRs(id topology.CoreID) *link.TokenPool {
	return n.readMSHRs[n.coreIndex(id)]
}

// WriteWCBs reports a core's write-combining buffer pool.
func (n *Network) WriteWCBs(id topology.CoreID) *link.TokenPool {
	return n.writeWCBs[n.coreIndex(id)]
}

// Channels returns every directional channel in the network, for
// telemetry export (the /proc/chiplet-net view of research direction #1).
func (n *Network) Channels() []*link.Channel {
	var chs []*link.Channel
	chs = append(chs, n.noc.Read, n.noc.Write)
	for c := 0; c < n.prof.CCDs; c++ {
		chs = append(chs, n.gmiIn[c], n.gmiOut[c], n.intraIn[c], n.intraOut[c])
	}
	for _, d := range n.drams {
		chs = append(chs, d.Read, d.Write)
	}
	for _, m := range n.cxls {
		chs = append(chs, m.Read, m.Write)
	}
	return chs
}

// ResetStats clears every channel and pool statistic, leaving in-flight
// state intact: experiments call it after warmup.
func (n *Network) ResetStats() {
	for _, ch := range n.Channels() {
		ch.ResetStats()
	}
	for _, ps := range n.poolGroups() {
		for _, p := range ps {
			p.ResetStats()
		}
	}
}
