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
	"fmt"

	"repro/internal/link"
	"repro/internal/trace"
	"repro/internal/units"
)

// AttachTracer wires the flight recorder into every channel, token pool,
// device and path stage of the network. Attach at most once per network,
// before running traffic; the tracer records nothing until Enable.
func (n *Network) AttachTracer(tr *trace.Tracer) {
	if tr == nil {
		panic("core: nil tracer")
	}
	n.tracer = tr
	n.noc.AttachTracer(tr)
	for c := 0; c < n.prof.CCDs; c++ {
		n.gmiIn[c].SetTracer(tr)
		n.gmiOut[c].SetTracer(tr)
		n.intraIn[c].SetTracer(tr)
		n.intraOut[c].SetTracer(tr)
	}
	for i := range n.drams {
		n.drams[i].AttachTracer(tr)
	}
	for i := range n.cxls {
		n.cxls[i].AttachTracer(tr)
	}
	for _, p := range n.Pools() {
		p.SetTracer(tr)
	}
	for c := 0; c < n.prof.CCDs; c++ {
		n.ccmHops = append(n.ccmHops,
			tr.RegisterHop(fmt.Sprintf("ccd%d/ccm", c), trace.KindStage))
		n.llcHops = append(n.llcHops,
			tr.RegisterHop(fmt.Sprintf("ccd%d/llc", c), trace.KindStage))
		n.ifHops = append(n.ifHops,
			tr.RegisterHop(fmt.Sprintf("ccd%d/if/fabric", c), trace.KindStage))
	}
	n.interHop = tr.RegisterHop("noc/intercc", trace.KindStage)
}

// Tracer reports the attached flight recorder, nil when none is attached.
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

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
