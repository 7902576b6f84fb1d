package numa

import (
	"testing"

	"repro/internal/core"
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

// chaseRemote runs a single-outstanding remote pointer chase.
func chaseRemote(t *testing.T, s *System, op txn.Op, count int) *telemetry.Histogram {
	t.Helper()
	var h telemetry.Histogram
	done := 0
	var step func()
	step = func() {
		s.IssueRemote(0, topology.CoreID{}, op, 0, func(tx *txn.Transaction) {
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
		s.IssueRemote(0, src, txn.Read, umc, func(tx *txn.Transaction) {
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
	if s.XGMIOut(0).Name() != "socket0/xgmi/out" {
		t.Errorf("xgmi name = %q", s.XGMIOut(0).Name())
	}
}

// localAccess is a near-channel read on the issuing socket.
func localAccess() core.Access {
	return core.Access{Op: txn.Read, Kind: core.DestDRAM, UMC: 0}
}
