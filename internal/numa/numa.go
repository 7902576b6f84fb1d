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
package numa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/txn"
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
	p    *topology.Profile // both sockets' platform
	nets [2]*core.Network
	// xgmi*[s] carry socket s's side of the link to its one peer; the
	// request/data direction split mirrors the GMI modelling.
	xgmiOut [2]*link.Channel // requests + write data leaving socket s
	xgmiIn  [2]*link.Channel // read data + acks arriving at socket s
	nextID  uint64
}

// NewSystem builds both sockets and their xGMI link on one engine.
func NewSystem(eng *sim.Engine) *System {
	s := &System{eng: eng, p: topology.EPYC7302()}
	for i := range s.nets {
		s.nets[i] = core.New(eng, s.p)
		s.xgmiOut[i] = link.NewChannel(eng,
			fmt.Sprintf("socket%d/xgmi/out", i), xgmiWriteCap, xgmiLatency, xgmiQueue)
		s.xgmiIn[i] = link.NewChannel(eng,
			fmt.Sprintf("socket%d/xgmi/in", i), XGMIReadCap, xgmiLatency, 0)
	}
	return s
}

// Engine reports the shared simulation engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Socket reports socket i's network; local traffic is issued on it
// directly with core.Network.Issue.
func (s *System) Socket(i int) *core.Network { return s.nets[i] }

// XGMIOut reports the channel carrying traffic leaving socket i.
func (s *System) XGMIOut(i int) *link.Channel { return s.xgmiOut[i] }

// peer reports the other socket.
func (s *System) peer(i int) int { return 1 - i }

// IssueRemote runs one cross-socket memory transaction: a core on
// srcSocket reads or writes DRAM channel umc on the peer socket. The
// request holds the local chiplet's traffic-control tokens, crosses the
// local I/O die and the xGMI link, is routed by the remote die to the
// remote UMC, and the response returns over the reverse path.
func (s *System) IssueRemote(srcSocket int, src topology.CoreID, op txn.Op, umc int, done func(*txn.Transaction)) {
	local := s.nets[srcSocket]
	remote := s.nets[s.peer(srcSocket)]
	p := s.p

	s.nextID++
	t := &txn.Transaction{
		ID: s.nextID, Op: op, Size: units.CacheLine,
		Flow: txn.Flow{Src: txn.CoreEP(src), Dst: txn.DRAMEP(umc)},
	}

	// Hold the local chiplet's hardware tokens for the whole flight, as a
	// local-memory access would.
	pools := []*link.TokenPool{local.ReadMSHRs(src)}
	if op == txn.NTWrite {
		pools = []*link.TokenPool{local.WriteWCBs(src)}
	}
	pools = append(pools, local.CCXTokens(src.CCXOf()))
	if ccd := local.CCDTokens(src.CCD); ccd != nil {
		pools = append(pools, ccd)
	}

	acquire(pools, 0, func() {
		t.Issued = s.eng.Now()
		finish := func() {
			t.Completed = s.eng.Now()
			for i := len(pools) - 1; i >= 0; i-- {
				pools[i].Release()
			}
			if done != nil {
				done(t)
			}
		}
		dram := remote.DRAM(umc)
		// Each die is crossed at its xGMI port with the base switch-hop
		// walk; the UMC position gradient is already captured by the
		// remote interleaving choice, so the base walk is representative.
		localHops := local.NoC().HopDelay(p.BaseSHops)
		remoteHops := remote.NoC().HopDelay(p.BaseSHops) + p.CSLatency
		reqSize, respSize := p.ReadRequestSize, units.CacheLine
		outSize := reqSize
		if op == txn.NTWrite {
			outSize, respSize = units.CacheLine, p.WriteAckSize
		}
		s.eng.After(p.CacheMissBase, func() {
			local.SendWithRetry(local.GMIOut(src.CCD), outSize, 0, func() {
				local.SendWithRetry(local.NoC().Write, outSize, localHops, func() {
					local.SendWithRetry(s.xgmiOut[srcSocket], outSize, 0, func() {
						remote.SendWithRetry(remote.NoC().Write, outSize, remoteHops, func() {
							if op == txn.NTWrite {
								dram.Write.Send(units.CacheLine, func() {
									s.eng.After(dram.AccessTime(), func() {
										s.respond(srcSocket, src, respSize, finish)
									})
								})
								return
							}
							s.eng.After(dram.AccessTime(), func() {
								dram.Read.Send(units.CacheLine, func() {
									s.respond(srcSocket, src, respSize, finish)
								})
							})
						})
					})
				})
			})
		})
	})
}

// respond carries the response from the remote die back to the waiting
// core: remote NoC read direction, the peer's xGMI toward us, our NoC,
// our GMI.
func (s *System) respond(srcSocket int, src topology.CoreID, size units.ByteSize, finish func()) {
	local := s.nets[srcSocket]
	remote := s.nets[s.peer(srcSocket)]
	remote.NoC().Read.Send(size, func() {
		s.xgmiIn[srcSocket].Send(size, func() {
			local.NoC().Read.Send(size, func() {
				local.GMIIn(src.CCD).Send(size, finish)
			})
		})
	})
}

func acquire(pools []*link.TokenPool, i int, fn func()) {
	if i >= len(pools) {
		fn()
		return
	}
	pools[i].Acquire(func() { acquire(pools, i+1, fn) })
}
