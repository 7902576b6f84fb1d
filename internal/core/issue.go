package core

import (
	"fmt"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/units"
)

// DestKind selects a transaction's destination domain.
type DestKind int

// Destination domains the micro-benchmark utility can target (§3.1:
// "originating from and destined to compute chiplets, memory domains, and
// device domains").
const (
	// DestDRAM targets a DDR channel behind a UMC.
	DestDRAM DestKind = iota
	// DestCXL targets a CXL.mem module behind a P link.
	DestCXL
	// DestLLCIntra targets the LLC fabric within the source's own compute
	// chiplet (Fig 3-a/b traffic).
	DestLLCIntra
	// DestLLCInter targets another compute chiplet's LLC through the I/O
	// die (Fig 3-c traffic).
	DestLLCInter
)

var destKindNames = [...]string{"dram", "cxl", "llc-intra", "llc-inter"}

func (k DestKind) String() string {
	if k < 0 || int(k) >= len(destKindNames) {
		return fmt.Sprintf("dest(%d)", int(k))
	}
	return destKindNames[k]
}

// Access describes one transaction to issue.
type Access struct {
	Src    topology.CoreID
	Op     txn.Op
	Kind   DestKind
	UMC    int // DestDRAM: target memory channel
	Module int // DestCXL: target module
	DstCCD int // DestLLCInter: target chiplet
}

// destEndpoint resolves the transaction-layer endpoint of an access.
func (a Access) destEndpoint(p *topology.Profile) txn.Endpoint {
	switch a.Kind {
	case DestDRAM:
		return txn.DRAMEP(a.UMC)
	case DestCXL:
		return txn.CXLEP(a.Module)
	case DestLLCIntra:
		// The peer complex on the same chiplet (the 9634 has only one
		// CCX per CCD, so the "peer" is the complex itself).
		peer := (a.Src.CCX + 1) % p.CCXPerCCD()
		return txn.LLCEP(topology.CCXID{CCD: a.Src.CCD, CCX: peer})
	case DestLLCInter:
		return txn.LLCEP(topology.CCXID{CCD: a.DstCCD, CCX: 0})
	default:
		panic(fmt.Sprintf("core: unknown destination kind %d", int(a.Kind)))
	}
}

// Issue runs one transaction through the network: it acquires the
// hardware traffic-control tokens, walks the request across every link on
// the path (consuming bandwidth and experiencing queueing at each), and
// invokes done with the completed transaction. extraTokens, if non-nil,
// are flow-level injection windows acquired before the hardware pools
// (the adaptive controllers of §3.5 live there).
//
// The transaction handed to done is recycled once done returns: a done
// callback that retains the pointer must copy the struct or call Pin.
// Everything else on this path — the walker frame, the hardware pool-set,
// the traffic-matrix keys — is pooled or precomputed, so steady-state
// issues allocate nothing.
func (n *Network) Issue(a Access, extraTokens []*link.TokenPool, done func(*txn.Transaction)) {
	n.nextID++
	var t *txn.Transaction
	if n.recycle {
		t = n.txns.Get()
	} else {
		t = &txn.Transaction{}
	}
	t.ID = n.nextID
	t.Op = a.Op
	t.Size = units.CacheLine
	t.Flow = txn.Flow{Src: txn.CoreEP(a.Src), Dst: a.destEndpoint(n.prof)}

	idx := n.coreIndex(a.Src)
	w := n.getWalker()
	w.t = t
	w.a = a
	w.done = done
	w.extra = extraTokens
	w.hw = n.poolSets[idx*numPoolSets+poolSetIndex(a)]
	w.srcKey = n.srcKeys[idx]
	w.dstKey = n.dstKeyFor(a)
	w.id = t.ID
	w.wb = false
	w.phase = phaseExtra
	w.acq = 0
	w.step()
}

// WindowFor reports the per-core hardware window (outstanding-request
// budget) that gates the given operation and destination: the natural
// closed-loop chain count per core.
func (n *Network) WindowFor(op txn.Op, kind DestKind) int {
	p := n.prof
	switch kind {
	case DestDRAM:
		if op == txn.NTWrite {
			return p.CoreWriteWCBs
		}
		return p.CoreReadMSHRs
	case DestCXL:
		if op == txn.NTWrite {
			return p.CoreCXLWrites
		}
		return p.CoreCXLReads
	default:
		return p.CoreLLCWindow
	}
}

// DriveClosedLoop issues count transactions of access a across chains
// closed-loop chains (each completion immediately reissues) and runs the
// engine until everything, writebacks included, has drained. It is the
// steady-state driver behind BenchmarkNetworkIssue and cmd/chipletbench's
// per-transaction measurements.
func (n *Network) DriveClosedLoop(a Access, chains, count int) {
	issued := 0
	var done func(*txn.Transaction)
	done = func(*txn.Transaction) {
		if issued < count {
			issued++
			n.Issue(a, nil, done)
		}
	}
	for i := 0; i < chains && issued < count; i++ {
		issued++
		n.Issue(a, nil, done)
	}
	n.Engine().Run()
}

// retryQuantum reports the backoff quantum for a message blocked on a
// channel of the given capacity: about one service quantum of the blocked
// message itself, so a cacheline probes every couple of nanoseconds and a
// bulk DMA chunk only as often as the link could actually drain it.
// Sub-cacheline messages are floored at the cacheline quantum (acks must
// not spin faster than data), and zero-capacity channels — whose
// TimeToSend is zero — at one nanosecond so retries always make progress.
func retryQuantum(capacity units.Bandwidth, size units.ByteSize) units.Time {
	quantum := capacity.TimeToSend(size)
	if floor := capacity.TimeToSend(units.CacheLine); quantum < floor {
		quantum = floor
	}
	if quantum <= 0 {
		quantum = units.Nanosecond
	}
	return quantum
}

// retryBackoff jitters a retry quantum uniformly over [q/2, 3q/2] using
// the given engine's seeded stream, desynchronizing competing retriers.
func retryBackoff(eng *sim.Engine, quantum units.Time) units.Time {
	return quantum/2 + units.Time(eng.Rand().Int63n(int64(quantum)+1))
}

// SendWithRetry sends on a bounded channel, retrying after a jittered
// service quantum when backpressured. The retry cadence is what makes
// admission arrival-proportional: a sender that wants more bandwidth has
// more messages in the retry pool, so it wins more freed slots — the
// sender-driven aggressive partitioning of §3.5. Exported so composing
// subsystems (the NUMA fabric, accelerator models) inherit the same
// admission behaviour.
func (n *Network) SendWithRetry(ch *link.Channel, size units.ByteSize, extra units.Time, then func()) {
	// Composed subsystems issue no core transactions, so their traffic is
	// traced as infrastructure (transaction id 0).
	n.pushWithRetry(ch, size, extra, 0, then)
}

// pushWithRetry sends for transaction id; time between the first refusal
// and the eventual acceptance is attributed as backpressure. Core
// transactions use the allocation-free walker equivalent (walker.attempt);
// this closure form remains for composing subsystems whose sends are rare.
func (n *Network) pushWithRetry(ch *link.Channel, size units.ByteSize, extra units.Time, id uint64, then func()) {
	blocked := units.Time(-1)
	var attempt func()
	attempt = func() {
		n.trSet(id)
		if ch.TrySendAfter(size, extra, then) {
			if blocked >= 0 {
				n.trRange(ch.Hop(), trace.CauseBackpressured, blocked, n.eng.Now())
			}
			return
		}
		if blocked < 0 {
			blocked = n.eng.Now()
		}
		n.eng.After(retryBackoff(n.eng, retryQuantum(ch.Capacity(), size)), attempt)
	}
	attempt()
}
