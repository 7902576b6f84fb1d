package core

import (
	"repro/internal/link"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/units"
)

// walker is the reusable frame of one in-flight transaction: token
// acquisition, the path state machine, and the retry loop all run through
// two continuations bound once when the walker is built.
// Walkers are recycled through the network's free list, so the steady-state
// transaction path allocates nothing.
//
// The state machines below are the closure chains of the former
// runDRAM/runCXL/runLLCIntra/runLLCInter walkers unrolled: each case is one
// event callback, in the same order, with the same tracer attributions and
// the same random draws. Changing the sequence changes seeded replay.
// Every hop is one channel send whose delivery is the next calendar event;
// the channel elides only its own depart events (see link.Channel).
type walker struct {
	n    *Network
	t    *txn.Transaction
	a    Access
	done func(*txn.Transaction)

	// Token pools: extra is the caller's flow-level window set, hw the
	// precomputed hardware set. acq walks each in order.
	hw    []*link.TokenPool
	extra []*link.TokenPool
	acq   int

	srcKey, dstKey telemetry.EndpointID
	id             uint64 // trace attribution: t.ID, or 0 for writebacks
	wb             bool   // asynchronous dirty-writeback walker

	phase int
	state int

	// Path constants computed on entry (former walker locals).
	shops    units.Time     // switch-hop delay run
	hopExtra units.Time     // per-message extra on the NoC leg
	respSize units.ByteSize // LLC-inter response size

	// In-flight push: the channel the walker is (re)trying to enter.
	ch      *link.Channel
	size    units.ByteSize
	pExtra  units.Time
	blocked units.Time

	stepFn  func() // bound w.step: every resumption, event or token grant
	retryFn func() // bound w.attempt, reused for every retry
}

// Walker phases: acquire flow windows, acquire hardware tokens, then walk
// the path.
const (
	phaseExtra = iota
	phaseHW
	phasePath
)

// getWalker pops a recycled walker from the free list or builds a fresh
// one. The method closures are the only per-walker allocations, paid once
// per free-list entry for the lifetime of the network.
func (n *Network) getWalker() *walker {
	if n.recycle {
		if ln := len(n.freeW); ln > 0 {
			w := n.freeW[ln-1]
			n.freeW[ln-1] = nil
			n.freeW = n.freeW[:ln-1]
			return w
		}
	}
	w := &walker{n: n}
	w.stepFn = w.step
	w.retryFn = w.attempt
	return w
}

// putWalker recycles a finished walker onto the free list, dropping object
// references so the free list pins nothing.
func (n *Network) putWalker(w *walker) {
	if !n.recycle {
		return
	}
	w.t = nil
	w.done = nil
	w.hw = nil
	w.extra = nil
	w.ch = nil
	n.freeW = append(n.freeW, w)
}

// step is the walker's only continuation: channel deliveries, timers and
// token grants all resume here, and it selects the next action from the
// (phase, state) pair.
func (w *walker) step() {
	switch w.phase {
	case phaseExtra:
		if w.acq < len(w.extra) {
			p := w.extra[w.acq]
			w.acq++
			p.Acquire(w.stepFn)
			return
		}
		// Latency is measured from here: it includes waiting on the
		// hardware traffic-control tokens (the paper's loaded-latency
		// curves include those stalls — that is what the Table 2 "Max
		// CCX Q" rows are), but not time spent queued behind a software
		// flow window.
		w.t.Issued = w.n.eng.Now()
		w.n.trSet(w.id)
		w.phase = phaseHW
		w.acq = 0
		fallthrough
	case phaseHW:
		if w.acq < len(w.hw) {
			p := w.hw[w.acq]
			w.acq++
			p.Acquire(w.stepFn)
			return
		}
		w.enterPath()
	default:
		w.pathStep()
	}
}

// pathStep dispatches to the destination's state machine.
func (w *walker) pathStep() {
	if w.wb {
		w.stepWriteback()
		return
	}
	switch w.a.Kind {
	case DestDRAM:
		w.stepDRAM()
	case DestCXL:
		w.stepCXL()
	case DestLLCIntra:
		w.stepLLCIntra()
	case DestLLCInter:
		w.stepLLCInter()
	}
}

// after resumes the walker d from now.
func (w *walker) after(d units.Time) {
	w.n.eng.After(d, w.stepFn)
}

// xsend sends unconditionally on ch with the walker's step as the
// delivery.
func (w *walker) xsend(ch *link.Channel, size units.ByteSize, extra units.Time) {
	ch.SendAfter(size, extra, w.stepFn)
}

// enterPath runs once all tokens are held: it computes the walker's path
// constants (sampling jitter exactly where the closure walkers did) and
// performs the path's first action.
func (w *walker) enterPath() {
	n, p, a := w.n, w.n.prof, w.a
	w.phase = phasePath
	w.state = 1
	switch a.Kind {
	case DestDRAM:
		w.shops = n.noc.MemoryHopDelay(a.Src.CCD, a.UMC)
		w.hopExtra = w.shops + p.CSLatency
		w.after(p.CacheMissBase)
	case DestCXL:
		w.shops = n.noc.IOHopDelay(a.Src.CCD)
		w.hopExtra = w.shops + p.IOHubLatency + p.RootComplexLatency
		w.after(p.CacheMissBase)
	case DestLLCIntra:
		w.hopExtra = p.IntraCCLatency + n.llcJitter.Sample()
		if a.Op == txn.NTWrite {
			w.pushTo(n.intraOut[a.Src.CCD], units.CacheLine, w.hopExtra)
		} else {
			w.pushTo(n.intraOut[a.Src.CCD], p.ReadRequestSize, w.hopExtra)
		}
	case DestLLCInter:
		// The deterministic latency budget beyond the explicitly modelled
		// legs (GMI crossings and the remote LLC lookup), plus coherence
		// jitter.
		w.hopExtra = interHopBase(p) + n.llcJitter.Sample()
		if a.Op == txn.NTWrite {
			w.respSize = p.WriteAckSize
		} else {
			w.respSize = units.CacheLine
		}
		w.after(p.CacheMissBase)
	}
}

// pushTo starts (re)trying to enter ch with the walker's step as the
// delivery continuation. Callers advance w.state first, so the delivery
// lands in the next case.
func (w *walker) pushTo(ch *link.Channel, size units.ByteSize, extra units.Time) {
	w.ch, w.size, w.pExtra = ch, size, extra
	w.blocked = -1
	w.attempt()
}

// attempt is one admission try; refusals rearm it after a jittered service
// quantum, exactly like pushWithRetry (see SendWithRetry for why the
// cadence matters).
func (w *walker) attempt() {
	n, eng := w.n, w.n.eng
	n.trSet(w.id)
	if w.ch.TrySendAfter(w.size, w.pExtra, w.stepFn) {
		if w.blocked >= 0 {
			n.trRange(w.ch.Hop(), trace.CauseBackpressured, w.blocked, eng.Now())
		}
		return
	}
	if w.blocked < 0 {
		w.blocked = eng.Now()
	}
	eng.After(retryBackoff(eng, retryQuantum(w.ch.Capacity(), w.size)), w.retryFn)
}

// finish completes the transaction: stamp, trace, release every token in
// reverse order, record the traffic-matrix cell by interned key, then hand
// the transaction to done and recycle both objects. The walker is recycled
// before done runs so a done callback that issues the next transaction
// (closed loops) reuses this frame; the transaction is recycled after done
// returns, unless the callback pinned it.
func (w *walker) finish() {
	n, t := w.n, w.t
	t.Completed = n.eng.Now()
	if n.tracer != nil {
		n.tracer.EndTxn(t.ID, t.Issued, t.Completed)
	}
	for i := len(w.hw) - 1; i >= 0; i-- {
		w.hw[i].Release()
	}
	for i := len(w.extra) - 1; i >= 0; i-- {
		w.extra[i].Release()
	}
	n.matrix.RecordID(w.srcKey, w.dstKey, t.Size)
	done := w.done
	n.putWalker(w)
	if done != nil {
		done(t)
	}
	if n.recycle {
		n.txns.Put(t)
	}
}

// stepDRAM walks a memory transaction: CCM -> GMI -> switch hops -> CS ->
// UMC -> DRAM, response back through the NoC and GMI (Fig 2's path).
//
// Every walker follows the same tracing discipline: re-establish the
// active transaction at the top of each event callback, and attribute the
// deterministic delays the channels cannot see (CCM handling, switch-hop
// runs riding the NoC's per-message extra, device service) to their named
// stage hops, retroactively where the delay has just elapsed. Together
// with the channel and pool hooks, the spans tile [Issued, Completed]
// exactly.
func (w *walker) stepDRAM() {
	n, p, a := w.n, w.n.prof, w.a
	ccd := a.Src.CCD
	dram := n.drams[a.UMC]
	nt := a.Op == txn.NTWrite
	switch w.state {
	case 1:
		n.trSet(w.id)
		w.trBefore(n.ccmHop(ccd), trace.CauseProcessing, p.CacheMissBase)
		w.state = 2
		if nt {
			w.pushTo(n.gmiOut[ccd], units.CacheLine, 0)
		} else {
			// A temporal write is a read-for-ownership: the line is
			// fetched like a read; the dirty writeback happens
			// asynchronously later.
			w.pushTo(n.gmiOut[ccd], p.ReadRequestSize, 0)
		}
	case 2:
		n.trSet(w.id)
		w.state = 3
		if nt {
			w.pushTo(n.noc.Write, units.CacheLine, w.hopExtra)
		} else {
			w.pushTo(n.noc.Write, p.ReadRequestSize, w.hopExtra)
		}
	case 3:
		n.trSet(w.id)
		w.trMeshHops(w.shops, p.CSLatency)
		w.state = 4
		if nt {
			w.xsend(dram.Write, units.CacheLine, 0)
		} else {
			access := dram.AccessTime()
			w.trAfter(dram.ServiceHop(), trace.CauseService, access)
			w.after(access)
		}
	case 4:
		n.trSet(w.id)
		w.state = 5
		if nt {
			access := dram.AccessTime()
			w.trAfter(dram.ServiceHop(), trace.CauseService, access)
			w.after(access)
		} else {
			w.xsend(dram.Read, units.CacheLine, 0)
		}
	case 5:
		n.trSet(w.id)
		w.state = 6
		if nt {
			w.xsend(n.noc.Read, p.WriteAckSize, 0)
		} else {
			w.xsend(n.noc.Read, units.CacheLine, 0)
		}
	case 6:
		n.trSet(w.id)
		w.state = 7
		if nt {
			w.xsend(n.gmiIn[ccd], p.WriteAckSize, 0)
		} else {
			w.xsend(n.gmiIn[ccd], units.CacheLine, 0)
		}
	case 7:
		if a.Op == txn.Write {
			n.startWriteback(a, w.hopExtra)
		}
		w.finish()
	}
}

// stepWriteback models the asynchronous dirty-line eviction a temporal
// write eventually causes: it consumes write-path bandwidth but completes
// nobody, so it traces as infrastructure (id 0): counted in the per-hop
// registry, excluded from transaction tilings.
func (w *walker) stepWriteback() {
	n := w.n
	switch w.state {
	case 1:
		w.state = 2
		w.pushTo(n.noc.Write, units.CacheLine, w.hopExtra)
	case 2:
		n.trSet(0)
		n.drams[w.a.UMC].Write.Send(units.CacheLine, nil)
		n.putWalker(w)
	}
}

// startWriteback launches a writeback walker for the dirty line a temporal
// write leaves behind, reusing the parent's NoC hop-extra (same CCD -> UMC
// route).
func (n *Network) startWriteback(a Access, hopExtra units.Time) {
	w := n.getWalker()
	w.a = a
	w.wb = true
	w.id = 0
	w.hopExtra = hopExtra
	w.phase = phasePath
	w.state = 1
	w.pushTo(n.gmiOut[a.Src.CCD], units.CacheLine, 0)
}

// stepCXL walks a device transaction: CCM -> GMI -> switch hops -> I/O hub
// -> root complex -> P link -> CXL module, riding 68 B flits on the CXL
// leg (§3.2's device path; Table 2's 243 ns row).
func (w *walker) stepCXL() {
	n, p, a := w.n, w.n.prof, w.a
	ccd := a.Src.CCD
	mod := n.cxls[a.Module]
	nt := a.Op == txn.NTWrite
	switch w.state {
	case 1:
		n.trSet(w.id)
		w.trBefore(n.ccmHop(ccd), trace.CauseProcessing, p.CacheMissBase)
		w.state = 2
		if nt {
			w.pushTo(n.gmiOut[ccd], units.CacheLine, 0)
		} else {
			w.pushTo(n.gmiOut[ccd], p.ReadRequestSize, 0)
		}
	case 2:
		n.trSet(w.id)
		w.state = 3
		if nt {
			w.pushTo(n.noc.Write, units.CacheLine, w.hopExtra)
		} else {
			w.pushTo(n.noc.Write, p.ReadRequestSize, w.hopExtra)
		}
	case 3:
		n.trSet(w.id)
		w.trHubHops(w.shops, p.IOHubLatency, p.RootComplexLatency)
		w.state = 4
		if nt {
			w.pushTo(mod.Write, mod.FlitSize(units.CacheLine), p.PLinkLatency)
		} else {
			w.pushTo(mod.Write, p.ReadRequestSize, p.PLinkLatency)
		}
	case 4:
		n.trSet(w.id)
		w.trBefore(mod.PLinkHop(), trace.CausePropagating, p.PLinkLatency)
		access := mod.AccessTime()
		w.trAfter(mod.ServiceHop(), trace.CauseService, access)
		w.state = 5
		w.after(access)
	case 5:
		n.trSet(w.id)
		w.state = 6
		if nt {
			w.xsend(mod.Read, p.WriteAckSize, 0)
		} else {
			w.xsend(mod.Read, mod.FlitSize(units.CacheLine), 0)
		}
	case 6:
		n.trSet(w.id)
		w.state = 7
		if nt {
			w.xsend(n.noc.Read, p.WriteAckSize, 0)
		} else {
			w.xsend(n.noc.Read, units.CacheLine, 0)
		}
	case 7:
		n.trSet(w.id)
		w.state = 8
		if nt {
			w.xsend(n.gmiIn[ccd], p.WriteAckSize, 0)
		} else {
			w.xsend(n.gmiIn[ccd], units.CacheLine, 0)
		}
	case 8:
		w.finish()
	}
}

// stepLLCIntra walks a cache-to-cache transfer within one compute chiplet.
// Its first push happens in enterPath (there is no CCM delay stage), so the
// machine starts at the delivery.
func (w *walker) stepLLCIntra() {
	n, p, a := w.n, w.n.prof, w.a
	ccd := a.Src.CCD
	switch w.state {
	case 1:
		n.trSet(w.id)
		w.trBefore(n.ifHop(ccd), trace.CausePropagating, w.hopExtra)
		w.state = 2
		if a.Op == txn.NTWrite {
			w.xsend(n.intraIn[ccd], p.WriteAckSize, 0)
		} else {
			w.xsend(n.intraIn[ccd], units.CacheLine, 0)
		}
	case 2:
		w.finish()
	}
}

// stepLLCInter walks a cache-to-cache transfer between compute chiplets:
// out through the source GMI, across the I/O die, into the target chiplet,
// and back. Requests and responses ride opposite GMI directions on both
// chiplets, which is why the paper sees inter-CC interference only at much
// higher aggregate bandwidth ("the I/O chiplet provisions more than one
// routing path").
func (w *walker) stepLLCInter() {
	n, p, a := w.n, w.n.prof, w.a
	src, dst := a.Src.CCD, a.DstCCD
	nt := a.Op == txn.NTWrite
	switch w.state {
	case 1:
		n.trSet(w.id)
		w.trBefore(n.ccmHop(src), trace.CauseProcessing, p.CacheMissBase)
		w.state = 2
		if nt {
			w.pushTo(n.gmiOut[src], units.CacheLine, 0)
		} else {
			w.pushTo(n.gmiOut[src], p.ReadRequestSize, 0)
		}
	case 2:
		n.trSet(w.id)
		w.state = 3
		if nt {
			w.pushTo(n.noc.Write, units.CacheLine, w.hopExtra)
		} else {
			w.pushTo(n.noc.Write, p.ReadRequestSize, w.hopExtra)
		}
	case 3:
		n.trSet(w.id)
		w.trBefore(n.interHop, trace.CausePropagating, w.hopExtra)
		w.state = 4
		if nt {
			w.xsend(n.gmiIn[dst], units.CacheLine, 0)
		} else {
			w.xsend(n.gmiIn[dst], p.ReadRequestSize, 0)
		}
	case 4:
		n.trSet(w.id)
		w.trAfter(n.llcHop(dst), trace.CauseProcessing, p.L3Latency)
		w.state = 5
		w.after(p.L3Latency)
	case 5:
		n.trSet(w.id)
		w.state = 6
		w.xsend(n.gmiOut[dst], w.respSize, 0)
	case 6:
		n.trSet(w.id)
		w.state = 7
		w.xsend(n.noc.Read, w.respSize, 0)
	case 7:
		n.trSet(w.id)
		w.state = 8
		w.xsend(n.gmiIn[src], w.respSize, 0)
	case 8:
		w.finish()
	}
}
