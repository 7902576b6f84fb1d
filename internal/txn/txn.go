// Package txn defines the transaction (L3) layer of server chiplet
// networking: the operations, endpoints, flows and transactions that ride
// the link layer. The design follows the gopacket Endpoint/Flow idiom —
// an Endpoint is a typed address, a Flow an ordered (src, dst) pair — so
// telemetry, the traffic manager, and the profiler can key state by flow.
//
// Per the paper (§2.3), transactions move at cacheline granularity on the
// coherent fabric and at FLIT granularity (68/256 B) on the CXL path.
package txn

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/units"
)

// Op is a transaction operation.
type Op int

// Operations the micro-benchmark utility generates (§3.1): reads, regular
// (temporal, allocate-on-write) stores and non-temporal streaming stores.
const (
	Read Op = iota
	Write
	NTWrite
)

var opNames = [...]string{"read", "write", "ntwrite"}

func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// IsWrite reports whether the operation moves data toward memory.
func (o Op) IsWrite() bool { return o == Write || o == NTWrite }

// EndpointKind types an Endpoint.
type EndpointKind int

// Endpoint kinds: traffic sources are cores; destinations are LLC slices,
// memory channels, CXL modules, or the device attached behind the I/O hub.
const (
	CoreEndpoint EndpointKind = iota
	LLCEndpoint
	DRAMEndpoint
	CXLEndpoint
	DeviceEndpoint
)

var endpointKindNames = [...]string{"core", "llc", "dram", "cxl", "device"}

func (k EndpointKind) String() string {
	if k < 0 || int(k) >= len(endpointKindNames) {
		return fmt.Sprintf("endpoint(%d)", int(k))
	}
	return endpointKindNames[k]
}

// Endpoint is a typed address in the chiplet network.
type Endpoint struct {
	Kind EndpointKind
	// Address components; meaning depends on Kind:
	//   CoreEndpoint: CCD/CCX/Core indices
	//   LLCEndpoint:  CCD/CCX indices (Core unused)
	//   DRAMEndpoint: CCD = UMC channel (CCX/Core unused)
	//   CXLEndpoint:  CCD = module index (CCX/Core unused)
	//   DeviceEndpoint: no address (one device per network)
	CCD, CCX, Core int
}

// CoreEP builds a core endpoint.
func CoreEP(id topology.CoreID) Endpoint {
	return Endpoint{Kind: CoreEndpoint, CCD: id.CCD, CCX: id.CCX, Core: id.Core}
}

// LLCEP builds an LLC-slice endpoint.
func LLCEP(id topology.CCXID) Endpoint {
	return Endpoint{Kind: LLCEndpoint, CCD: id.CCD, CCX: id.CCX}
}

// DRAMEP builds a memory-channel endpoint.
func DRAMEP(umc int) Endpoint { return Endpoint{Kind: DRAMEndpoint, CCD: umc} }

// CXLEP builds a CXL-module endpoint.
func CXLEP(module int) Endpoint { return Endpoint{Kind: CXLEndpoint, CCD: module} }

// CoreID recovers the core address of a core endpoint; it panics on other
// kinds.
func (e Endpoint) CoreID() topology.CoreID {
	if e.Kind != CoreEndpoint {
		panic(fmt.Sprintf("txn: CoreID of %v endpoint", e.Kind))
	}
	return topology.CoreID{CCD: e.CCD, CCX: e.CCX, Core: e.Core}
}

func (e Endpoint) String() string {
	switch e.Kind {
	case CoreEndpoint:
		return fmt.Sprintf("core:ccd%d/ccx%d/core%d", e.CCD, e.CCX, e.Core)
	case LLCEndpoint:
		return fmt.Sprintf("llc:ccd%d/ccx%d", e.CCD, e.CCX)
	case DRAMEndpoint:
		return fmt.Sprintf("dram:umc%d", e.CCD)
	case CXLEndpoint:
		return fmt.Sprintf("cxl:mod%d", e.CCD)
	case DeviceEndpoint:
		return "device"
	default:
		return fmt.Sprintf("endpoint(%d)", int(e.Kind))
	}
}

// Flow is an ordered source/destination endpoint pair — the communication
// flow abstraction the paper's Implication #4 argues the chiplet network
// should expose.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse reports the flow in the opposite direction (the response path).
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

func (f Flow) String() string { return f.Src.String() + " -> " + f.Dst.String() }

// Transaction is one in-flight operation at the transaction layer.
//
// Completed transactions handed to a done callback are recycled through a
// Pool once the callback returns: a consumer that wants to keep the
// transaction past its callback must either copy the struct or call Pin.
type Transaction struct {
	ID        uint64
	Op        Op
	Flow      Flow
	Size      units.ByteSize
	Issued    units.Time
	Completed units.Time

	pinned bool
}

// Pin excludes the transaction from free-list recycling, so a consumer
// that retains the pointer past its done callback keeps a stable value.
func (t *Transaction) Pin() { t.pinned = true }

// Pinned reports whether Pin was called.
func (t *Transaction) Pinned() bool { return t.pinned }

// Latency reports the completion latency; zero until completed.
func (t *Transaction) Latency() units.Time {
	if t.Completed < t.Issued {
		return 0
	}
	return t.Completed - t.Issued
}

func (t *Transaction) String() string {
	return fmt.Sprintf("txn#%d %v %v %v", t.ID, t.Op, t.Flow, t.Size)
}
