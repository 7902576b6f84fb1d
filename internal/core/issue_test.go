package core

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

func TestDestKindString(t *testing.T) {
	cases := map[DestKind]string{
		DestDRAM: "dram", DestCXL: "cxl",
		DestLLCIntra: "llc-intra", DestLLCInter: "llc-inter",
		DestRemoteDRAM: "remote-dram", DestDevice: "device", DestKind(9): "dest(9)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("DestKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestDeviceAccessNeedsDevice: a doorbell on a network with no device
// attached panics and names the missing attachment.
func TestDeviceAccessNeedsDevice(t *testing.T) {
	net := newNet(topology.EPYC9634())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "no device attached") {
			t.Errorf("panic %q, want one naming the missing device", msg)
		}
	}()
	net.Issue(Access{Op: txn.NTWrite, Kind: DestDevice}, nil, nil)
}

func TestTemporalWriteIsRFOPlusWriteback(t *testing.T) {
	// A temporal write fetches the line (read path latency) and then
	// writes back asynchronously: its completion latency tracks the read
	// latency, and the UMC write channel sees the writeback bytes.
	net := newNet(topology.EPYC7302())
	h := probe(t, net, Access{Op: txn.Write, Kind: DestDRAM, UMC: 0}, 500)
	want := 124 * units.Nanosecond
	if h.Mean() < want-6*units.Nanosecond || h.Mean() > want+6*units.Nanosecond {
		t.Errorf("temporal write latency = %v, want ~%v (RFO)", h.Mean(), want)
	}
	net.Engine().Run() // drain writebacks
	wr := net.drams[0].Write.Stats()
	if wr.Bytes < 500*units.CacheLine {
		t.Errorf("writebacks moved %v, want >= %v", wr.Bytes, 500*units.CacheLine)
	}
	rd := net.drams[0].Read.Stats()
	if rd.Bytes < 500*units.CacheLine {
		t.Errorf("RFO fills moved %v on the read channel", rd.Bytes)
	}
}

func TestCXLWritePath(t *testing.T) {
	net := newNet(topology.EPYC9634())
	h := probe(t, net, Access{Op: txn.NTWrite, Kind: DestCXL, Module: 2}, 500)
	// Same path budget as a CXL read, minus the data-return leg.
	if h.Mean() < 220*units.Nanosecond || h.Mean() > 260*units.Nanosecond {
		t.Errorf("CXL NT write latency = %v, want ~243ns", h.Mean())
	}
	// The P-link write channel carried 68 B flits, not bare cachelines.
	wr := net.cxls[2].Write.Stats()
	if wr.Bytes < 500*68 {
		t.Errorf("CXL write channel moved %v, want >= %v (flit framing)",
			wr.Bytes, units.ByteSize(500*68))
	}
}

func TestInterCCWrite(t *testing.T) {
	p := topology.EPYC7302()
	net := newNet(p)
	h := probe(t, net, Access{Op: txn.NTWrite, Kind: DestLLCInter, DstCCD: 2}, 500)
	if h.Mean() < 130*units.Nanosecond || h.Mean() > 160*units.Nanosecond {
		t.Errorf("inter-CC write latency = %v", h.Mean())
	}
	// Write data crosses the source's out direction and the target's in
	// direction.
	if net.gmiOut[0].Stats().Bytes < 500*units.CacheLine {
		t.Error("source GMI out direction unused")
	}
	if net.gmiIn[2].Stats().Bytes < 500*units.CacheLine {
		t.Error("target GMI in direction unused")
	}
}

// TestTrafficMatrixRecordsFlows builds a traffic matrix from completed
// transactions, as a flow observer does: each carries its source core
// and destination endpoint.
func TestTrafficMatrixRecordsFlows(t *testing.T) {
	net := newNet(topology.EPYC7302())
	m := telemetry.NewTrafficMatrix()
	a := Access{
		Src: topology.CoreID{CCD: 1, CCX: 0, Core: 1},
		Op:  txn.Read, Kind: DestDRAM, UMC: 3,
	}
	var issue func()
	left := 100
	issue = func() {
		net.Issue(a, nil, func(tx *txn.Transaction) {
			m.Record(tx.Flow.Src.String(), tx.Flow.Dst.String(), tx.Size)
			if left--; left > 0 {
				issue()
			}
		})
	}
	issue()
	net.Engine().Run()
	got := m.Bytes("core:ccd1/ccx0/core1", "dram:umc3")
	if got != 100*units.CacheLine {
		t.Errorf("matrix cell = %v, want %v", got, 100*units.CacheLine)
	}
	if m.Total() != 100*units.CacheLine {
		t.Errorf("matrix total = %v", m.Total())
	}
}

func TestWindowFor(t *testing.T) {
	p := topology.EPYC9634()
	net := newNet(p)
	cases := []struct {
		op   txn.Op
		kind DestKind
		want int
	}{
		{txn.Read, DestDRAM, p.CoreReadMSHRs},
		{txn.Write, DestDRAM, p.CoreReadMSHRs}, // RFO rides the read window
		{txn.NTWrite, DestDRAM, p.CoreWriteWCBs},
		{txn.Read, DestCXL, p.CoreCXLReads},
		{txn.NTWrite, DestCXL, p.CoreCXLWrites},
		{txn.Read, DestLLCIntra, p.CoreLLCWindow},
		{txn.Read, DestLLCInter, p.CoreLLCWindow},
	}
	for _, c := range cases {
		if got := net.WindowFor(c.op, c.kind); got != c.want {
			t.Errorf("WindowFor(%v, %v) = %d, want %d", c.op, c.kind, got, c.want)
		}
	}
}

func TestChannelsEnumeration(t *testing.T) {
	p := topology.EPYC9634()
	net := newNet(p)
	chs := net.Channels()
	// 2 NoC + 4 per CCD + 2 per UMC + 2 per CXL module.
	want := 2 + 4*p.CCDs + 2*p.UMCChannels + 2*p.CXLModules
	if len(chs) != want {
		t.Errorf("Channels() = %d, want %d", len(chs), want)
	}
	seen := map[string]bool{}
	for _, ch := range chs {
		if seen[ch.Name()] {
			t.Errorf("duplicate channel name %q", ch.Name())
		}
		seen[ch.Name()] = true
	}
}

func TestResetStatsClearsChannels(t *testing.T) {
	net := newNet(topology.EPYC7302())
	probe(t, net, Access{Op: txn.Read, Kind: DestDRAM, UMC: 0}, 50)
	net.ResetStats()
	for _, ch := range net.Channels() {
		if ch.Stats().Bytes != 0 {
			t.Errorf("%s still has bytes after ResetStats", ch.Name())
		}
	}
	if net.CCXTokens(topology.CCXID{}).MaxWait() != 0 {
		t.Error("pool stats not reset")
	}
}

func TestTokenAccountingBalances(t *testing.T) {
	// After all transactions complete, every pool must be fully released.
	p := topology.EPYC9634()
	net := newNet(p)
	ops := []Access{
		{Op: txn.Read, Kind: DestDRAM, UMC: 0},
		{Op: txn.NTWrite, Kind: DestDRAM, UMC: 5},
		{Op: txn.Write, Kind: DestDRAM, UMC: 3},
		{Op: txn.Read, Kind: DestCXL, Module: 1},
		{Op: txn.NTWrite, Kind: DestCXL, Module: 0},
		{Op: txn.Read, Kind: DestLLCIntra},
		{Op: txn.NTWrite, Kind: DestLLCInter, DstCCD: 4},
	}
	issued := 0
	for _, a := range ops {
		for i := 0; i < 50; i++ {
			net.Issue(a, nil, func(*txn.Transaction) { issued++ })
		}
	}
	net.Engine().Run()
	if issued != len(ops)*50 {
		t.Fatalf("completed %d of %d", issued, len(ops)*50)
	}
	if n := net.CCXTokens(topology.CCXID{}).InUse(); n != 0 {
		t.Errorf("CCX tokens leaked: %d", n)
	}
	if n := net.readMSHRs[0].InUse(); n != 0 {
		t.Errorf("MSHRs leaked: %d", n)
	}
	if n := net.writeWCBs[0].InUse(); n != 0 {
		t.Errorf("WCBs leaked: %d", n)
	}
}

func TestNewRejectsBrokenProfile(t *testing.T) {
	p := topology.EPYC7302()
	p.Cores = 0
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New should panic on an invalid profile")
		}
		if !strings.Contains(r.(string), "non-positive") {
			t.Errorf("panic message = %v", r)
		}
	}()
	newNet(p)
}

func TestJoinNeedsOneEngine(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "one engine") {
			t.Errorf("join across engines: panic = %v", r)
		}
	}()
	newNet(topology.EPYC7302()).Join(newNet(topology.EPYC7302()), nil, nil)
}

func TestCCDTokensAbsentOn9634(t *testing.T) {
	if newNet(topology.EPYC9634()).CCDTokens(0) != nil {
		t.Error("9634 should have no per-CCD token stage")
	}
	if newNet(topology.EPYC7302()).CCDTokens(0) == nil {
		t.Error("7302 should have a per-CCD token stage")
	}
}
