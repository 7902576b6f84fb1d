package numa

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	return NewSystem(sim.New(5))
}

// issueRemote issues one access from a core on socket 0 to memory channel
// umc on socket 1.
func issueRemote(s *System, src topology.CoreID, op txn.Op, umc int, done func(*txn.Transaction)) {
	s.Socket(0).Issue(core.Access{Src: src, Op: op, Kind: core.DestRemoteDRAM, UMC: umc}, nil, done)
}

// chaseRemote runs a single-outstanding remote pointer chase.
func chaseRemote(t *testing.T, s *System, op txn.Op, count int) *telemetry.Histogram {
	t.Helper()
	var h telemetry.Histogram
	done := 0
	var step func()
	step = func() {
		issueRemote(s, topology.CoreID{}, op, 0, func(tx *txn.Transaction) {
			h.Record(tx.Latency())
			done++
			if done < count {
				step()
			}
		})
	}
	step()
	s.Engine().Run()
	if done != count {
		t.Fatalf("completed %d of %d", done, count)
	}
	return &h
}

func TestRemoteReadLatency(t *testing.T) {
	// Remote DRAM on 2P Zen 2 sits around 195-210 ns: local ~124 plus two
	// xGMI crossings and the remote die walk.
	h := chaseRemote(t, newSystem(t), txn.Read, 1000)
	if h.Mean() < 195*units.Nanosecond || h.Mean() > 225*units.Nanosecond {
		t.Errorf("remote read latency = %v, want ~195-225ns", h.Mean())
	}
}

func TestRemoteWriteLatency(t *testing.T) {
	h := chaseRemote(t, newSystem(t), txn.NTWrite, 1000)
	if h.Mean() < 190*units.Nanosecond || h.Mean() > 230*units.Nanosecond {
		t.Errorf("remote write latency = %v", h.Mean())
	}
}

func TestRemotePenaltyVersusLocal(t *testing.T) {
	// The same chase against local memory must be ~70-90 ns cheaper.
	s := newSystem(t)
	var local telemetry.Histogram
	done := 0
	var step func()
	step = func() {
		s.Socket(0).Issue(
			// near channel on the local socket
			localAccess(), nil,
			func(tx *txn.Transaction) {
				local.Record(tx.Latency())
				done++
				if done < 1000 {
					step()
				}
			})
	}
	step()
	s.Engine().Run()
	remote := chaseRemote(t, newSystem(t), txn.Read, 1000)
	penalty := remote.Mean() - local.Mean()
	if penalty < 60*units.Nanosecond || penalty > 100*units.Nanosecond {
		t.Errorf("remote penalty = %v, want ~70-90ns", penalty)
	}
}

func TestRemoteBandwidthXGMIBound(t *testing.T) {
	// Whole-socket remote reads: 16 cores' windows are ample (the local
	// CPU reaches 106.7 GB/s locally), so the xGMI read direction (37
	// GB/s) must be the binding ceiling.
	s := newSystem(t)
	eng := s.Engine()
	p := topology.EPYC7302()
	var meter telemetry.Meter
	umcs := p.UMCSet(topology.NPS1, 0)
	n := 0
	var loop func(src topology.CoreID, umc int)
	loop = func(src topology.CoreID, umc int) {
		issueRemote(s, src, txn.Read, umc, func(tx *txn.Transaction) {
			meter.Record(tx.Size)
			loop(src, umcs[n%len(umcs)])
			n++
		})
	}
	for ccd := 0; ccd < p.CCDs; ccd++ {
		for ccx := 0; ccx < p.CCXPerCCD(); ccx++ {
			for c := 0; c < p.CoresPerCCX(); c++ {
				for k := 0; k < p.CoreReadMSHRs; k++ {
					loop(topology.CoreID{CCD: ccd, CCX: ccx, Core: c}, umcs[k%len(umcs)])
				}
			}
		}
	}
	eng.RunFor(20 * units.Microsecond)
	meter.Reset(eng.Now())
	eng.RunFor(50 * units.Microsecond)
	got := meter.Rate(eng.Now()).GBpsValue()
	if got < 33 || got > 38.5 {
		t.Errorf("remote read bandwidth = %.1f GB/s, want ~37 (xGMI cap)", got)
	}
}

func TestLocalTrafficUnaffectedBySecondSocket(t *testing.T) {
	// A purely local run on socket 1 must match the single-socket model.
	s := newSystem(t)
	var h telemetry.Histogram
	done := 0
	var step func()
	step = func() {
		s.Socket(1).Issue(localAccess(), nil, func(tx *txn.Transaction) {
			h.Record(tx.Latency())
			done++
			if done < 1000 {
				step()
			}
		})
	}
	step()
	s.Engine().Run()
	want := 124 * units.Nanosecond
	if h.Mean() < want-4*units.Nanosecond || h.Mean() > want+4*units.Nanosecond {
		t.Errorf("local latency on socket 1 = %v, want ~124ns", h.Mean())
	}
}

func TestAccessors(t *testing.T) {
	s := newSystem(t)
	if s.Socket(0) == s.Socket(1) {
		t.Error("sockets must be distinct networks")
	}
	if s.xgmiOut[0].Name() != "socket0/xgmi/out" {
		t.Errorf("xgmi name = %q", s.xgmiOut[0].Name())
	}
}

// localAccess is a near-channel read on the issuing socket.
func localAccess() core.Access {
	return core.Access{Op: txn.Read, Kind: core.DestDRAM, UMC: 0}
}

// TestRemoteLegsPinned runs one unloaded remote read and one remote
// non-temporal write from chiplet 1 of socket 0 to UMC 3 of socket 1 and
// pins every channel they cross: the message and byte counts on each
// socket's channels, in Channels() order, and on both sockets' xGMI
// directions, and the transaction's latency.
func TestRemoteLegsPinned(t *testing.T) {
	want := map[txn.Op]string{
		txn.Read: "194.795ns: s0/noc/rd=1x64 s0/noc/wr=1x16 s0/ccd1/gmi/in=1x64 s0/ccd1/gmi/out=1x16 " +
			"s1/noc/rd=1x64 s1/noc/wr=1x16 s1/umc3/rd=1x64 " +
			"socket0/xgmi/out=1x16 socket0/xgmi/in=1x64 socket1/xgmi/out=0x0 socket1/xgmi/in=0x0",
		txn.NTWrite: "195.805ns: s0/noc/rd=1x8 s0/noc/wr=1x64 s0/ccd1/gmi/in=1x8 s0/ccd1/gmi/out=1x64 " +
			"s1/noc/rd=1x8 s1/noc/wr=1x64 s1/umc3/wr=1x64 " +
			"socket0/xgmi/out=1x64 socket0/xgmi/in=1x8 socket1/xgmi/out=0x0 socket1/xgmi/in=0x0",
	}
	for op, w := range want {
		s := newSystem(t)
		var got strings.Builder
		issueRemote(s, topology.CoreID{CCD: 1}, op, 3, func(tx *txn.Transaction) {
			fmt.Fprintf(&got, "%v:", tx.Latency())
		})
		s.Engine().Run()
		for i := range s.nets {
			for _, ch := range s.Socket(i).Channels() {
				if st := ch.Stats(); st.Messages > 0 {
					fmt.Fprintf(&got, " s%d/%s=%dx%d", i, st.Name, st.Messages, st.Bytes)
				}
			}
		}
		for i := range s.nets {
			for _, ch := range []*link.Channel{s.xgmiOut[i], s.xgmiIn[i]} {
				st := ch.Stats()
				fmt.Fprintf(&got, " %s=%dx%d", st.Name, st.Messages, st.Bytes)
			}
		}
		if got.String() != w {
			t.Errorf("%v:\n got %q\nwant %q", op, got.String(), w)
		}
	}
}

// TestRemoteIssueAllocs: a warm remote access rides the pooled walker
// frame and transaction, so it allocates nothing.
func TestRemoteIssueAllocs(t *testing.T) {
	for _, op := range []txn.Op{txn.Read, txn.NTWrite} {
		s := newSystem(t)
		run := func() {
			issueRemote(s, topology.CoreID{}, op, 0, nil)
			s.Engine().Run()
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("remote %v allocates %v times per access, want 0", op, n)
		}
	}
}
