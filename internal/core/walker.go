package core

import (
	"cmp"

	"repro/internal/link"
	"repro/internal/memsys"
	"repro/internal/topology"
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
// Every off-chiplet path has Fig 2's shape: cache miss and CCM, out
// through the source GMI, across the I/O-die NoC, a destination-specific
// far end, then back over the NoC and into the source GMI. The walker runs
// that skeleton once for every destination, the peer socket's memory and
// the attached device included; only the far end (farEnd) differs. The
// messages no core issues (writebacks, DMA chunks, completion records)
// ride id-0 walkers that join the skeleton partway. Each state is one event
// callback. The event order, the tracer
// attributions and the random draws are part of seeded replay: changing
// the sequence changes every result. Every hop is one channel send whose
// delivery is the next calendar event; the channel elides only its own
// depart events (see link.Channel).
type walker struct {
	n    *Network
	t    *txn.Transaction // nil when no core issued the walker's message
	a    Access
	done func(*txn.Transaction)

	// Token pools: extra is the caller's flow-level window set, hw the
	// precomputed hardware set. acq walks each in order.
	hw    []*link.TokenPool
	extra []*link.TokenPool
	acq   int

	id   uint64 // trace attribution: t.ID, or 0 when t is nil
	then func() // a DMA chunk's or completion record's delivery

	state int

	// Path constants computed on entry.
	hopExtra  units.Time     // per-message extra on the outbound NoC leg
	req, resp units.ByteSize // outbound and return message sizes

	// In-flight push: the channel the walker is (re)trying to enter.
	push admission

	stepFn  func() // bound w.step: every resumption, event or token grant
	retryFn func() // bound w.attempt, reused for every retry
}

// Walker states, one per event callback. A walker acquires its flow
// windows and hardware tokens, then walks the shared skeleton; sFar and
// the states above it are the far end, and sIntra is the whole
// on-chiplet LLC path.
const (
	sExtra  = iota // acquire flow windows
	sHW            // acquire hardware tokens
	sCCM           // cache-miss handling elapsed: enter the source GMI
	sNoC           // out of the source GMI: enter the NoC write direction
	sReturn        // response onto the NoC read direction
	sGMIIn         // into the source GMI
	sIntra         // over the intra-chiplet fabric and back
	sDone          // response delivered
	sFar           // NoC delivered at the far end: sFar+k is its step k
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
	w.then = nil
	w.hw = nil
	w.extra = nil
	w.push.ch = nil
	n.freeW = append(n.freeW, w)
}

// msgSizes reports an access's request and response sizes. A
// non-temporal write carries the line out and an ack back; a read, or a
// temporal write's read-for-ownership, carries a request out and the line
// back.
func msgSizes(p *topology.Profile, op txn.Op) (req, resp units.ByteSize) {
	if op == txn.NTWrite {
		return units.CacheLine, p.WriteAckSize
	}
	return p.ReadRequestSize, units.CacheLine
}

// step is the walker's only continuation: channel deliveries, timers and
// token grants all resume here, and it selects the next action from the
// state.
//
// Every state follows the same tracing discipline: re-establish the
// active transaction at the top of the callback, and attribute the
// deterministic delays the channels cannot see (CCM handling, switch-hop
// runs riding the NoC's per-message extra, device service) to their named
// stage hops, retroactively where the delay has just elapsed. Together
// with the channel and pool hooks, the spans tile [Issued, Completed]
// exactly. sDone must not set the register: TokenPool.Acquire reads it,
// so a set there would change which transaction the stalls of a
// transaction issued from done are charged to.
func (w *walker) step() {
	n := w.n
	src := w.a.Src.CCD
	switch w.state {
	case sExtra:
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
		w.t.Issued = n.eng.Now()
		n.trSet(w.id)
		w.state = sHW
		w.acq = 0
		fallthrough
	case sHW:
		if w.acq < len(w.hw) {
			p := w.hw[w.acq]
			w.acq++
			p.Acquire(w.stepFn)
			return
		}
		w.enterPath()
	case sCCM:
		n.trSet(w.id)
		w.trBefore(stageHop(n.ccmHops, src), trace.CauseProcessing, n.prof.CacheMissBase)
		w.state = sNoC
		w.pushTo(&n.gmiOut[src], w.req, 0)
	case sNoC:
		n.trSet(w.id)
		w.state = sFar
		w.pushTo(n.noc.Write, w.req, w.hopExtra)
	case sReturn:
		n.trSet(w.id)
		w.state = sGMIIn
		w.xsend(n.noc.Read, w.resp, 0)
	case sGMIIn:
		n.trSet(w.id)
		w.state = sDone
		w.xsend(&n.gmiIn[src], w.resp, 0)
	case sIntra:
		n.trSet(w.id)
		w.trBefore(stageHop(n.ifHops, src), trace.CausePropagating, w.hopExtra)
		w.state = sDone
		w.xsend(&n.intraIn[src], w.resp, 0)
	case sDone:
		if w.a.Kind == DestDRAM && w.a.Op == txn.Write {
			n.startWriteback(w.a, w.hopExtra)
		}
		w.finish()
	default:
		w.farEnd()
	}
}

// enterPath runs once all tokens are held: it computes the walker's path
// constants, sampling the LLC paths' coherence jitter before the first
// event, and performs the path's first action. The on-chiplet LLC path
// has no CCM stage: its first push happens here.
func (w *walker) enterPath() {
	n, p, a := w.n, w.n.prof, w.a
	w.req, w.resp = msgSizes(p, a.Op)
	w.state = sCCM
	switch a.Kind {
	case DestDRAM:
		w.hopExtra = n.noc.MemoryHopDelay(a.Src.CCD, a.UMC) + p.CSLatency
	case DestRemoteDRAM:
		// Each die is crossed at its xGMI port with the base switch-hop
		// walk: the choice of remote channel already sets the UMC.
		w.hopExtra = n.noc.HopDelay(p.BaseSHops)
	case DestCXL, DestDevice:
		w.hopExtra = n.noc.IOHopDelay(a.Src.CCD) + p.IOHubLatency + p.RootComplexLatency
		if a.Kind == DestDevice { // an uncached write: no cache miss
			w.req, w.state = signalSize, sNoC
			w.pushTo(&n.gmiOut[a.Src.CCD], w.req, 0)
			return
		}
	case DestLLCInter:
		// The deterministic latency budget beyond the explicitly modelled
		// legs (GMI crossings and the remote LLC lookup), plus coherence
		// jitter.
		w.hopExtra = interHopBase(p) + n.llcJitter.Sample()
	case DestLLCIntra:
		w.hopExtra = p.IntraCCLatency + n.llcJitter.Sample()
		w.state = sIntra
		w.pushTo(&n.intraOut[a.Src.CCD], w.req, w.hopExtra)
		return
	}
	w.after(p.CacheMissBase)
}

// farEnd runs the destination's part of the path, from the NoC write
// delivery to the response entering the return leg; its last step sets
// sReturn.
//
//   - DRAM: CS -> UMC -> DRAM. Write data enters the UMC before the
//     access; read data leaves it after.
//   - Remote DRAM: xGMI out, the peer die's NoC (base switch-hop walk
//     and CS), the peer UMC as for DRAM, peer NoC read, xGMI in. These
//     legs attribute no stages: no caller traces a two-socket system.
//   - CXL: I/O hub -> root complex -> P link -> CXL module, cachelines
//     riding 68 B flits (§3.2's device path; Table 2's 243 ns row).
//   - Inter-chiplet LLC: into the target chiplet's GMI, the remote LLC
//     lookup, and out of its GMI. Requests and responses ride opposite
//     GMI directions on both chiplets, which is why the paper sees
//     inter-CC interference only at much higher aggregate bandwidth ("the
//     I/O chiplet provisions more than one routing path").
//   - Device: a doorbell crosses the I/O hub onto the device's signal
//     lane, done on delivery (a posted write); a DMA chunk ends on the
//     data lane (Read) or in the UMC write queue (Write); a completion
//     record turns off the signal lane onto the NoC read direction.
//   - Writeback (a DRAM walker with no transaction): the line enters the
//     UMC write queue and the walker ends.
func (w *walker) farEnd() {
	n, p, a := w.n, w.n.prof, w.a
	step := w.state - sFar
	w.state++
	n.trSet(w.id)
	switch {
	case a.Kind == DestDRAM && w.t == nil:
		n.drams[a.UMC].Write.Send(units.CacheLine, nil)
		n.putWalker(w)
	case a.Kind == DestDRAM:
		if step == 0 {
			w.trMeshHops(p.CSLatency)
		} else {
			w.state = sReturn
		}
		w.dramLeg(&n.drams[a.UMC], step)
	case a.Kind == DestRemoteDRAM:
		peer := n.peer
		switch step {
		case 0:
			w.pushTo(n.xgmiOut, w.req, 0)
		case 1:
			w.pushTo(peer.noc.Write, w.req, peer.noc.HopDelay(p.BaseSHops)+p.CSLatency)
		case 2, 3:
			w.dramLeg(&peer.drams[a.UMC], step-2)
		case 4:
			w.xsend(peer.noc.Read, w.resp, 0)
		case 5:
			w.state = sReturn
			w.xsend(n.xgmiIn, w.resp, 0)
		}
	case a.Kind == DestCXL:
		mod := &n.cxls[a.Module]
		switch step {
		case 0:
			w.trHubHops(p.IOHubLatency, p.RootComplexLatency)
			w.pushTo(mod.Write, flitted(mod, w.req), p.PLinkLatency)
		case 1:
			w.trBefore(mod.PLinkHop(), trace.CausePropagating, p.PLinkLatency)
			w.serve(mod.ServiceHop(), mod.AccessTime())
		case 2:
			w.state = sReturn
			w.xsend(mod.Read, flitted(mod, w.resp), 0)
		}
	case a.Kind == DestLLCInter:
		dst := a.DstCCD
		switch step {
		case 0:
			w.trBefore(n.interHop, trace.CausePropagating, w.hopExtra)
			w.xsend(&n.gmiIn[dst], w.req, 0)
		case 1:
			w.trAfter(stageHop(n.llcHops, dst), trace.CauseProcessing, p.L3Latency)
			w.after(p.L3Latency)
		case 2:
			w.state = sReturn
			w.xsend(&n.gmiOut[dst], w.resp, 0)
		}
	case a.Kind == DestDevice:
		w.state = sDone
		switch {
		case w.t != nil:
			w.trHubHops(p.IOHubLatency, p.RootComplexLatency)
			w.pushTo(cmp.Or(n.sigToDev, n.toDev), w.req, 0)
		case a.Op == txn.Read:
			w.pushTo(n.toDev, w.req, 0)
		case a.Op == txn.Write:
			w.xsend(n.drams[a.UMC].Write, w.req, 0)
		default:
			w.state = sGMIIn
			w.xsend(n.noc.Read, w.req, 0)
		}
	}
}

// dramLeg runs step 0 or 1 of a DRAM access on dram: write data enters
// the UMC before the access, read data leaves it after. Only a local
// access attributes the access to the channel's service hop.
func (w *walker) dramLeg(dram *memsys.DRAMChannel, step int) {
	nt := w.a.Op == txn.NTWrite
	switch {
	case step == 0 && nt:
		w.xsend(dram.Write, w.req, 0)
	case step == 1 && !nt:
		w.xsend(dram.Read, w.resp, 0)
	case w.a.Kind == DestDRAM:
		w.serve(dram.ServiceHop(), dram.AccessTime())
	default:
		w.after(dram.AccessTime())
	}
}

// flitted reports a CXL message's P-link size: a cacheline of data rides
// whole flits, request and ack headers ride bare.
func flitted(mod *memsys.CXLModule, size units.ByteSize) units.ByteSize {
	if size == units.CacheLine {
		return mod.FlitSize(size)
	}
	return size
}

// startWriteback launches a writeback walker for the dirty line a temporal
// write leaves behind. It models the asynchronous eviction: it consumes
// write-path bandwidth but completes nobody, so it traces as
// infrastructure (id 0): counted in the per-hop registry, excluded from
// transaction tilings. It joins the skeleton at the source GMI, reusing
// the parent's NoC hop-extra (same CCD -> UMC route).
func (n *Network) startWriteback(a Access, hopExtra units.Time) {
	w := n.joinWalker(a, &n.gmiOut[a.Src.CCD], units.CacheLine, sNoC, nil)
	w.hopExtra = hopExtra
}

// DMA moves a size-byte chunk between memory channel umc and the device,
// toward the device when toDevice, and calls then on delivery. It joins
// the skeleton at the NoC write after a first leg out of the UMC read
// queue or off the device's data lane, and traces as id 0.
func (n *Network) DMA(umc int, size units.ByteSize, toDevice bool, then func()) {
	a, first := Access{Op: txn.Write, Kind: DestDevice, UMC: umc}, n.toHost
	if toDevice {
		a.Op, first = txn.Read, n.drams[umc].Read
	}
	w := n.joinWalker(a, first, size, sNoC, then)
	w.hopExtra = n.noc.HopDelay(n.prof.BaseSHops)
}

// Notify sends a completion record from the device to chiplet ccd and
// calls then on arrival: off the signal lane, over the NoC read and into
// the chiplet's GMI as an ack. It traces as id 0.
func (n *Network) Notify(ccd int, then func()) {
	a := Access{Src: topology.CoreID{CCD: ccd}, Op: txn.NTWrite, Kind: DestDevice}
	w := n.joinWalker(a, cmp.Or(n.sigToHost, n.toHost), signalSize, sFar, then)
	w.resp = n.prof.WriteAckSize
}

// joinWalker starts a walker that carries no transaction (trace id 0)
// partway along the skeleton: it pushes req onto first, and the delivery
// resumes it in state.
func (n *Network) joinWalker(a Access, first *link.Channel, req units.ByteSize, state int, then func()) *walker {
	w := n.getWalker()
	w.a, w.req, w.state, w.then = a, req, state, then
	w.id = 0
	w.pushTo(first, req, 0)
	return w
}

// after resumes the walker d from now.
func (w *walker) after(d units.Time) {
	w.n.eng.After(d, w.stepFn)
}

// serve attributes a device access of duration d to its service hop and
// resumes the walker when it ends.
func (w *walker) serve(hop trace.HopID, d units.Time) {
	w.trAfter(hop, trace.CauseService, d)
	w.after(d)
}

// xsend sends unconditionally on ch with the walker's step as the
// delivery.
func (w *walker) xsend(ch *link.Channel, size units.ByteSize, extra units.Time) {
	ch.SendAfter(size, extra, w.stepFn)
}

// pushTo starts (re)trying to enter ch with the walker's step as the
// delivery continuation. Callers advance w.state first, so the delivery
// lands in the next state.
func (w *walker) pushTo(ch *link.Channel, size units.ByteSize, extra units.Time) {
	w.push = admission{ch: ch, size: size, extra: extra, blocked: -1}
	w.attempt()
}

// attempt is one admission try of the in-flight push (see admit).
func (w *walker) attempt() {
	w.n.admit(&w.push, w.id, w.stepFn, w.retryFn)
}

// finish completes the transaction: stamp, trace, release every token in
// reverse order, then hand the transaction to done and recycle both
// objects. The walker is recycled
// before done runs so a done callback that issues the next transaction
// (closed loops) reuses this frame; the transaction is recycled after done
// returns, unless the callback pinned it.
func (w *walker) finish() {
	n, t := w.n, w.t
	if t == nil { // a DMA chunk or completion record
		then := w.then
		n.putWalker(w)
		then()
		return
	}
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
	done := w.done
	n.putWalker(w)
	if done != nil {
		done(t)
	}
	if n.recycle {
		n.txns.Put(t)
	}
}
