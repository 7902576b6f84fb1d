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
	// DestRemoteDRAM targets a DDR channel on the peer socket (see Join).
	// It holds DestDRAM's tokens; a temporal write runs as its
	// read-for-ownership, with no writeback.
	DestRemoteDRAM
	// DestDevice rings the doorbell of the device behind the I/O hub (see
	// AttachDevice): a posted signalSize MMIO write that completes when
	// the device's signal lane delivers it. It holds no tokens and has no
	// cache-miss stage.
	DestDevice
)

var destKindNames = [...]string{"dram", "cxl", "llc-intra", "llc-inter", "remote-dram", "device"}

// signalSize is the payload of a doorbell and of a completion record.
const signalSize units.ByteSize = 16

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
	UMC    int // DestDRAM, DestRemoteDRAM: target memory channel
	Module int // DestCXL: target module
	DstCCD int // DestLLCInter: target chiplet
}

// destEndpoint resolves the transaction-layer endpoint of an access on n.
func (n *Network) destEndpoint(a Access) txn.Endpoint {
	switch a.Kind {
	case DestDRAM, DestRemoteDRAM:
		return txn.DRAMEP(a.UMC)
	case DestCXL:
		return txn.CXLEP(a.Module)
	case DestLLCIntra:
		// The peer complex on the same chiplet (the 9634 has only one
		// CCX per CCD, so the "peer" is the complex itself).
		peer := (a.Src.CCX + 1) % n.prof.CCXPerCCD()
		return txn.LLCEP(topology.CCXID{CCD: a.Src.CCD, CCX: peer})
	case DestLLCInter:
		return txn.LLCEP(topology.CCXID{CCD: a.DstCCD, CCX: 0})
	case DestDevice:
		if n.toDev == nil {
			panic("core: device access on a network with no device attached (see AttachDevice)")
		}
		return txn.Endpoint{Kind: txn.DeviceEndpoint}
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
// Everything else on this path — the walker frame and the hardware
// pool-set — is pooled or precomputed, so steady-state issues allocate
// nothing.
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
	t.Flow = txn.Flow{Src: txn.CoreEP(a.Src), Dst: n.destEndpoint(a)}

	idx := n.coreIndex(a.Src)
	w := n.getWalker()
	w.t = t
	w.a = a
	w.done = done
	w.extra = extraTokens
	w.hw = n.poolSet(idx, poolSetIndex(a))
	w.id = t.ID
	w.state = sExtra
	w.acq = 0
	w.step()
}

// WindowFor reports the per-core hardware window (outstanding-request
// budget) that gates the given operation and destination: the natural
// closed-loop chain count per core.
func (n *Network) WindowFor(op txn.Op, kind DestKind) int {
	p := n.prof
	switch kind {
	case DestDRAM, DestRemoteDRAM:
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

// admission is one message (re)trying to enter a bounded channel.
type admission struct {
	ch      *link.Channel
	size    units.ByteSize
	extra   units.Time
	blocked units.Time // time of the first refusal, -1 until refused
}

// admit makes one admission try for transaction id with then as the
// delivery; its only callers are walkers (see walker.attempt). A refusal
// rearms retry after a jittered service quantum; the time from the first
// refusal to acceptance is attributed as backpressure. The retry cadence
// is what makes admission arrival-proportional: a sender that wants more
// bandwidth has more messages in the retry pool, so it wins more freed
// slots — the sender-driven aggressive partitioning of §3.5.
func (n *Network) admit(m *admission, id uint64, then, retry func()) {
	n.trSet(id)
	if m.ch.TrySendAfter(m.size, m.extra, then) {
		if m.blocked >= 0 {
			n.trRange(m.ch.Hop(), trace.CauseBackpressured, m.blocked, n.eng.Now())
		}
		return
	}
	if m.blocked < 0 {
		m.blocked = n.eng.Now()
	}
	n.eng.After(retryBackoff(n.eng, retryQuantum(m.ch.Capacity(), m.size)), retry)
}
