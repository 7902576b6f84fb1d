// Flight-recorder wiring for the network. The tracer itself lives in
// internal/trace; this file attaches it to every channel, token pool and
// device of a Network, registers the path stages only the issuing layer
// can see (CCM, LLC lookups, intra/inter-chiplet fabric slack), and
// provides the nil-guarded helpers the path walker in walker.go calls.
//
// The guarantee maintained here is exact tiling: the spans recorded for
// one transaction cover [Issued, Completed] with no gaps and no overlaps,
// so they sum to the end-to-end latency to the picosecond. Channels
// record their own queue/serialize/propagate time; everything else — the
// deterministic stage delays folded into per-message "extra" propagation,
// cache-miss handling, device service — is attributed retroactively by
// the walker that knows which stage the time models.
package core

import (
	"strings"

	"repro/internal/link"
	"repro/internal/trace"
	"repro/internal/units"
)

// AttachTracer wires the flight recorder into every channel, token pool,
// device, attached device lane and path stage of the network. Attach at
// most once per network, before running traffic; the tracer records
// nothing until Enable. It sizes the tracer's hop registry once and
// builds the stage and device hop names in one string.
func (n *Network) AttachTracer(tr *trace.Tracer) {
	if tr == nil {
		panic("core: nil tracer")
	}
	ccds, umcs, cxls := n.prof.CCDs, len(n.drams), len(n.cxls)
	// The NoC's two directions and four stages, four channels and three
	// stages per CCD, three hops per UMC, four per CXL module, the pools
	// and the inter-CC stage.
	tr.Reserve(6 + 7*ccds + 3*umcs + 4*cxls + len(n.pools) + 1)
	var names strings.Builder
	names.Grow(nameBytes("umc", umcs, "/dram") + nameBytes("cxl", cxls, "/dev") +
		nameBytes("cxl", cxls, "/plink") + nameBytes("ccd", ccds, "/ccm") +
		nameBytes("ccd", ccds, "/llc") + nameBytes("ccd", ccds, "/if/fabric"))

	n.tracer = tr
	n.noc.AttachTracer(tr)
	for c := 0; c < ccds; c++ {
		n.gmiIn[c].SetTracer(tr)
		n.gmiOut[c].SetTracer(tr)
		n.intraIn[c].SetTracer(tr)
		n.intraOut[c].SetTracer(tr)
	}
	for i := range n.drams {
		d := &n.drams[i]
		d.AttachTracer(tr, name(&names, "umc", d.Index, "/dram"))
	}
	for i := range n.cxls {
		m := &n.cxls[i]
		m.AttachTracer(tr, name(&names, "cxl", m.Index, "/dev"), name(&names, "cxl", m.Index, "/plink"))
	}
	for i := range n.pools {
		n.pools[i].SetTracer(tr)
	}
	for _, ch := range [...]*link.Channel{n.toDev, n.toHost, n.sigToDev, n.sigToHost} {
		if ch != nil {
			ch.SetTracer(tr)
		}
	}
	stages := make([]trace.HopID, 3*ccds)
	n.ccmHops, n.llcHops, n.ifHops = stages[:ccds], stages[ccds:2*ccds], stages[2*ccds:]
	for c := 0; c < ccds; c++ {
		n.ccmHops[c] = tr.RegisterHop(name(&names, "ccd", c, "/ccm"), trace.KindStage)
		n.llcHops[c] = tr.RegisterHop(name(&names, "ccd", c, "/llc"), trace.KindStage)
		n.ifHops[c] = tr.RegisterHop(name(&names, "ccd", c, "/if/fabric"), trace.KindStage)
	}
	n.interHop = tr.RegisterHop("noc/intercc", trace.KindStage)
}

// stageHop reports chiplet ccd's hop in one of the per-CCD stage tables
// (ccmHops, llcHops, ifHops): zero when no tracer is attached, since
// callers only dereference it under the guarded helpers below.
func stageHop(hops []trace.HopID, ccd int) trace.HopID {
	if hops == nil {
		return 0
	}
	return hops[ccd]
}

// trSet re-establishes the tracer's active-transaction register. The
// walkers call it at the top of every event callback: the engine runs one
// callback chain at a time, so whatever the register held when the event
// was scheduled is stale by the time it fires.
func (n *Network) trSet(id uint64) {
	if n.tracer != nil {
		n.tracer.SetActive(id)
	}
}

// trRange records an attributed interval.
func (n *Network) trRange(hop trace.HopID, cause trace.Cause, from, to units.Time) {
	if n.tracer != nil {
		n.tracer.Range(hop, cause, from, to)
	}
}

// trBefore attributes the d just elapsed before now to a stage.
func (w *walker) trBefore(hop trace.HopID, cause trace.Cause, d units.Time) {
	if n := w.n; n.tracer != nil {
		now := n.eng.Now()
		n.tracer.Range(hop, cause, now-d, now)
	}
}

// trAfter attributes the d about to elapse after now to a stage.
func (w *walker) trAfter(hop trace.HopID, cause trace.Cause, d units.Time) {
	if n := w.n; n.tracer != nil {
		now := n.eng.Now()
		n.tracer.Range(hop, cause, now, now+d)
	}
}

// trMeshHops retroactively attributes a memory-path NoC crossing that
// just completed now: the walker's hop-extra is the switch-hop run
// followed by the CS stage.
func (w *walker) trMeshHops(cs units.Time) {
	n := w.n
	if n.tracer == nil {
		return
	}
	now := n.eng.Now()
	n.tracer.Range(n.noc.ShopsHop(), trace.CausePropagating, now-w.hopExtra, now-cs)
	n.tracer.Range(n.noc.CSHop(), trace.CauseProcessing, now-cs, now)
}

// trHubHops retroactively attributes a device-path NoC crossing that just
// completed now: the walker's hop-extra is the switch-hop run followed by
// the I/O hub and root-complex stages.
func (w *walker) trHubHops(hub, rc units.Time) {
	n := w.n
	if n.tracer == nil {
		return
	}
	now := n.eng.Now()
	n.tracer.Range(n.noc.ShopsHop(), trace.CausePropagating, now-w.hopExtra, now-rc-hub)
	n.tracer.Range(n.noc.IOHubHop(), trace.CauseProcessing, now-rc-hub, now-rc)
	n.tracer.Range(n.noc.RootHop(), trace.CauseProcessing, now-rc, now)
}

// Pools returns every hardware token pool in the network — the per-queue
// half of the counter registry, alongside Channels — in a fixed order:
// CCX, CCD and device-credit pools, then the per-core windows by kind.
func (n *Network) Pools() []*link.TokenPool {
	out := make([]*link.TokenPool, len(n.pools))
	for i := range n.pools {
		out[i] = &n.pools[i]
	}
	return out
}
