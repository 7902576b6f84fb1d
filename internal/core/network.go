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
	"strconv"
	"strings"

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
//
// New builds it in a fixed handful of allocations: every component kind
// lives in one slab (the per-chiplet channels, the UMC and CXL devices
// with their channels inline, all token pools), the fields below are
// views over those slabs, and every name is a substring of one string.
// Components are addressed in place and never copied: channels and pools
// are handed out as pointers into the slabs.
type Network struct {
	eng  *sim.Engine
	prof *topology.Profile

	// llcJitter perturbs cache-to-cache transfers: snoop collisions and
	// coherence-directory variance give the IF latency distribution its
	// tail (Fig 3-a reports a 490 ns P999 at a 144.5 ns average).
	llcJitter memsys.Jitter

	// Free lists for the per-transaction objects, and the id counter.
	txns   txn.Pool
	freeW  []*walker
	nextID uint64

	noc   mesh.NoC
	drams []memsys.DRAMChannel
	cxls  []memsys.CXLModule

	// Per-CCD link bundles, views over one channel slab. "In" carries
	// data toward the cores (read responses, write acks), "Out" carries
	// data away (write data, read requests).
	gmiIn    []link.Channel
	gmiOut   []link.Channel
	intraIn  []link.Channel
	intraOut []link.Channel

	// pools is every hardware traffic-control pool (§3.2) in the order
	// Pools lists them; the groups below are views over its runs.
	pools     []link.TokenPool
	ccxTokens []link.TokenPool // per CCX: index ccd*CCXPerCCD+ccx
	ccdTokens []link.TokenPool // per CCD; empty when the profile has none
	devRead   []link.TokenPool // per CCD, device-bound read credits
	devWrite  []link.TokenPool // per CCD, device-bound write credits

	// Per-core MSHR/WCB windows, indexed by linear core id.
	readMSHRs []link.TokenPool
	writeWCBs []link.TokenPool
	llcWindow []link.TokenPool
	cxlReads  []link.TokenPool
	cxlWrites []link.TokenPool

	// Hot-path flyweight, built once at construction: the hardware token
	// pool-set per (core, DestKind, Op-class) in acquisition order. Core
	// idx's sets fill setPools[idx*setStride:][:setStride], slot s of it
	// at the span setSlots[s], the same for every core. Issue never
	// formats a string or appends a slice.
	setPools  []*link.TokenPool
	setStride int
	setSlots  [numPoolSets]poolSpan

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

	// The attached device's data lanes and its signal lanes (nil when
	// signals share the data lanes), set by AttachDevice.
	toDev, toHost, sigToDev, sigToHost *link.Channel
}

// poolSpan locates one pool-set within a core's block of setPools.
type poolSpan struct{ off, end int }

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
	n.noc.Init(eng, p)

	// Groups absent from a platform get no pools: the 9634 has no CCD
	// stage, the 7302 no CXL credits.
	ccdPools, devPools, corePools := 0, 0, 0
	if p.CCDTokens > 0 {
		ccdPools = p.CCDs
	}
	if p.CXLModules > 0 {
		devPools, corePools = p.CCDs, p.Cores
	}
	pools := [...]struct {
		view           *[]link.TokenPool
		prefix, suffix string
		count, tokens  int
	}{
		{&n.ccxTokens, "ccx", "/tokens", p.CCXs, p.CCXTokens},
		{&n.ccdTokens, "ccd", "/tokens", ccdPools, p.CCDTokens},
		{&n.devRead, "ccd", "/devcrd/rd", devPools, p.CCDDevReadCrd},
		{&n.devWrite, "ccd", "/devcrd/wr", devPools, p.CCDDevWriteCrd},
		{&n.readMSHRs, "core", "/mshr", p.Cores, p.CoreReadMSHRs},
		{&n.writeWCBs, "core", "/wcb", p.Cores, p.CoreWriteWCBs},
		{&n.llcWindow, "core", "/llcwin", p.Cores, p.CoreLLCWindow},
		{&n.cxlReads, "core", "/cxlrd", corePools, p.CoreCXLReads},
		{&n.cxlWrites, "core", "/cxlwr", corePools, p.CoreCXLWrites},
	}
	links := [...]struct {
		view     *[]link.Channel
		suffix   string
		capacity units.Bandwidth
		latency  units.Time
		depth    int
	}{
		{&n.gmiIn, "/gmi/in", p.GMIReadCap, 0, 0},
		{&n.gmiOut, "/gmi/out", p.GMIWriteCap, p.GMILinkLatency, p.GMIWriteQueue},
		{&n.intraIn, "/if/in", p.IntraCCReadCap, 0, 0},
		{&n.intraOut, "/if/out", p.IntraCCWriteCap, 0, p.IntraCCWriteQueue},
	}

	// Reserve room for every name first, so they all land in one string.
	var names strings.Builder
	size, npools := 0, 0
	for _, g := range pools {
		size += nameBytes(g.prefix, g.count, g.suffix)
		npools += g.count
	}
	for _, g := range links {
		size += nameBytes("ccd", p.CCDs, g.suffix)
	}
	size += nameBytes("umc", p.UMCChannels, "/rd") + nameBytes("umc", p.UMCChannels, "/wr") +
		nameBytes("cxl", p.CXLModules, "/rd") + nameBytes("cxl", p.CXLModules, "/wr")
	names.Grow(size)

	n.drams = make([]memsys.DRAMChannel, p.UMCChannels)
	for u := range n.drams {
		n.drams[u].Init(eng, p, u, name(&names, "umc", u, "/rd"), name(&names, "umc", u, "/wr"))
	}
	n.cxls = make([]memsys.CXLModule, p.CXLModules)
	for m := range n.cxls {
		n.cxls[m].Init(eng, p, m, name(&names, "cxl", m, "/rd"), name(&names, "cxl", m, "/wr"))
	}
	chs := make([]link.Channel, len(links)*p.CCDs)
	for i, g := range links {
		*g.view = chs[i*p.CCDs : (i+1)*p.CCDs]
		for c := range *g.view {
			(*g.view)[c].Init(eng, name(&names, "ccd", c, g.suffix), g.capacity, g.latency, g.depth)
		}
	}
	n.pools = make([]link.TokenPool, npools)
	at := 0
	for _, g := range pools {
		*g.view = n.pools[at : at+g.count]
		at += g.count
		for i := range *g.view {
			(*g.view)[i].Init(eng, name(&names, g.prefix, i, g.suffix), g.tokens)
		}
	}
	n.buildPoolSets()
	return n
}

// nameBytes bounds the bytes of the count names prefix+i+suffix, i <
// count.
func nameBytes(prefix string, count int, suffix string) int {
	digits := 1
	for c := count; c >= 10; c /= 10 {
		digits++
	}
	return count * (len(prefix) + digits + len(suffix))
}

// name appends prefix+i+suffix to b and returns it as a substring of b's
// string: b never rewrites bytes it holds, and with its room reserved
// every name shares one allocation.
func name(b *strings.Builder, prefix string, i int, suffix string) string {
	start := b.Len()
	var digits [20]byte
	b.WriteString(prefix)
	b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	b.WriteString(suffix)
	return b.String()[start:]
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

// AttachDevice attaches the one device behind the I/O hub: DMA chunks ride
// toDev and toHost, DestDevice doorbells and Notify's completion records
// the signal lanes, or the data lanes when those are nil. Attach it before
// any tracer, which then records the lanes as hops.
func (n *Network) AttachDevice(toDev, toHost, sigToDev, sigToHost *link.Channel) {
	if n.tracer != nil {
		panic("core: attach the device before the tracer")
	}
	n.toDev, n.toHost, n.sigToDev, n.sigToHost = toDev, toHost, sigToDev, sigToHost
}

// numPoolSets is the pool-set slots per core: every destination kind times
// two operation classes (demand read/RFO vs. non-temporal write). Remote
// DRAM's slots hold DRAM's sets: the same tokens. The device's slots stay
// empty: a doorbell holds no tokens.
const numPoolSets = 2 * len(destKindNames)

// poolSetIndex selects an access's slot within a core's pool-set block.
func poolSetIndex(a Access) int {
	i := int(a.Kind) * 2
	if a.Op == txn.NTWrite {
		i++
	}
	return i
}

// buildPoolSets precomputes, per (core, kind, op-class), the hardware token
// pools an access must hold in the global acquisition order (core window,
// CCX, CCD, device credits) that keeps the token graph deadlock-free.
// Every core's block has the same layout; the two op-classes of an LLC
// access share one set.
func (n *Network) buildPoolSets() {
	p := n.prof
	hasCCD, hasCXL := len(n.ccdTokens) > 0, len(n.cxlReads) > 0
	at := 0
	span := func(k int) poolSpan {
		at += k
		return poolSpan{at - k, at}
	}
	dram := 2
	if hasCCD {
		dram = 3
	}
	n.setSlots[int(DestDRAM)*2] = span(dram)
	n.setSlots[int(DestDRAM)*2+1] = span(dram)
	copy(n.setSlots[int(DestRemoteDRAM)*2:], n.setSlots[int(DestDRAM)*2:][:2])
	if hasCXL {
		n.setSlots[int(DestCXL)*2] = span(2)
		n.setSlots[int(DestCXL)*2+1] = span(2)
	}
	intra, inter := span(1), span(2)
	n.setSlots[int(DestLLCIntra)*2], n.setSlots[int(DestLLCIntra)*2+1] = intra, intra
	n.setSlots[int(DestLLCInter)*2], n.setSlots[int(DestLLCInter)*2+1] = inter, inter
	n.setStride = at

	n.setPools = make([]*link.TokenPool, p.Cores*n.setStride)
	for ccd := 0; ccd < p.CCDs; ccd++ {
		for ccx := 0; ccx < p.CCXPerCCD(); ccx++ {
			for c := 0; c < p.CoresPerCCX(); c++ {
				idx := n.coreIndex(topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
				ccxPool := &n.ccxTokens[ccd*p.CCXPerCCD()+ccx]
				set := func(slot int) []*link.TokenPool { return n.poolSet(idx, slot) }
				dramRW, dramNT := set(int(DestDRAM)*2), set(int(DestDRAM)*2+1)
				dramRW[0], dramRW[1] = &n.readMSHRs[idx], ccxPool
				dramNT[0], dramNT[1] = &n.writeWCBs[idx], ccxPool
				if hasCCD {
					dramRW[2], dramNT[2] = &n.ccdTokens[ccd], &n.ccdTokens[ccd]
				}
				if hasCXL {
					copy(set(int(DestCXL)*2), []*link.TokenPool{&n.cxlReads[idx], &n.devRead[ccd]})
					copy(set(int(DestCXL)*2+1), []*link.TokenPool{&n.cxlWrites[idx], &n.devWrite[ccd]})
				}
				set(int(DestLLCIntra) * 2)[0] = &n.llcWindow[idx]
				copy(set(int(DestLLCInter)*2), []*link.TokenPool{&n.llcWindow[idx], ccxPool})
			}
		}
	}
}

// poolSet reports core idx's pool-set in slot (see poolSetIndex).
func (n *Network) poolSet(idx, slot int) []*link.TokenPool {
	s := n.setSlots[slot]
	base := idx * n.setStride
	return n.setPools[base+s.off : base+s.end]
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

// CCXTokens reports the token pool of a core complex.
func (n *Network) CCXTokens(id topology.CCXID) *link.TokenPool {
	return &n.ccxTokens[id.CCD*n.prof.CCXPerCCD()+id.CCX]
}

// CCDTokens reports the per-chiplet token pool, nil when the platform has
// no second token stage (EPYC 9634).
func (n *Network) CCDTokens(ccd int) *link.TokenPool {
	if len(n.ccdTokens) == 0 {
		return nil
	}
	return &n.ccdTokens[ccd]
}

// coreIndex flattens a CoreID to a linear index.
func (n *Network) coreIndex(id topology.CoreID) int {
	return id.CCD*n.prof.CoresPerCCD() + id.CCX*n.prof.CoresPerCCX() + id.Core
}

// Channels returns every directional channel in the network, for
// telemetry export (the /proc/chiplet-net view of research direction #1).
func (n *Network) Channels() []*link.Channel {
	chs := make([]*link.Channel, 0, 2+4*len(n.gmiIn)+2*len(n.drams)+2*len(n.cxls))
	chs = append(chs, n.noc.Read, n.noc.Write)
	for c := range n.gmiIn {
		chs = append(chs, &n.gmiIn[c], &n.gmiOut[c], &n.intraIn[c], &n.intraOut[c])
	}
	for i := range n.drams {
		chs = append(chs, n.drams[i].Read, n.drams[i].Write)
	}
	for i := range n.cxls {
		chs = append(chs, n.cxls[i].Read, n.cxls[i].Write)
	}
	return chs
}

// ResetStats clears every channel and pool statistic, leaving in-flight
// state intact: experiments call it after warmup.
func (n *Network) ResetStats() {
	for _, ch := range n.Channels() {
		ch.ResetStats()
	}
	for i := range n.pools {
		n.pools[i].ResetStats()
	}
}
