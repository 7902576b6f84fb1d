// Package numa extends the single-socket chiplet network to the paper's
// actual testbed shape: the Dell 7525 holds two EPYC 7302 packages joined
// by xGMI (socket-to-socket Infinity Fabric) links. Cross-socket memory
// access adds one more tier to the "network of heterogeneous networks":
// the request leaves the local I/O die, crosses an xGMI link, is routed by
// the remote I/O die to the remote UMC, and the data returns the same way.
//
// The paper characterizes within one socket; this package supplies the
// substrate its §4 directions need — a host network where the remote
// socket is yet another bandwidth domain with its own BDP.
//
// The package only builds the testbed: two core networks joined over the
// xGMI pair (core.Network.Join). A cross-socket access is one more
// destination of core's transaction walker, issued on the source socket
// as core.Access{Kind: core.DestRemoteDRAM}. No caller traces a
// two-socket system, so the remote legs attribute no trace stages.
package numa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// The xGMI link between the two sockets. On 2P Zen 2 servers, remote
// DRAM sits ~70-80 ns above local (~195 ns vs 124 ns); with the die-walk
// legs modelled separately this leaves ~28 ns per one-way crossing. Each
// direction of the 16-lane link pair carries ~37 GB/s.
const (
	xgmiLatency = 28 * units.Nanosecond
	// XGMIReadCap bounds the read-data direction: the ceiling of every
	// remote-read workload.
	XGMIReadCap  = 37 * units.Bandwidth(units.GB)
	xgmiWriteCap = 37 * units.Bandwidth(units.GB)
	// xgmiQueue bounds the request direction's staging queue.
	xgmiQueue = 160
)

// System is a two-socket chiplet server: the Dell 7525 testbed, two EPYC
// 7302 packages.
type System struct {
	eng  *sim.Engine
	nets [2]*core.Network
	// xgmi*[s] carry socket s's side of the link to its one peer; the
	// request/data direction split mirrors the GMI modelling.
	xgmiOut [2]*link.Channel // requests + write data leaving socket s
	xgmiIn  [2]*link.Channel // read data + acks arriving at socket s
}

// NewSystem builds both sockets and their xGMI link on one engine and
// joins each socket to the other.
func NewSystem(eng *sim.Engine) *System {
	s := &System{eng: eng}
	p := topology.EPYC7302()
	for i := range s.nets {
		s.nets[i] = core.New(eng, p)
		s.xgmiOut[i] = link.NewChannel(eng,
			fmt.Sprintf("socket%d/xgmi/out", i), xgmiWriteCap, xgmiLatency, xgmiQueue)
		s.xgmiIn[i] = link.NewChannel(eng,
			fmt.Sprintf("socket%d/xgmi/in", i), XGMIReadCap, xgmiLatency, 0)
	}
	for i, n := range s.nets {
		n.Join(s.nets[1-i], s.xgmiOut[i], s.xgmiIn[i])
	}
	return s
}

// Engine reports the shared simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Socket reports socket i's network: local and remote (DestRemoteDRAM)
// traffic is issued on it with core.Network.Issue.
func (s *System) Socket(i int) *core.Network { return s.nets[i] }
