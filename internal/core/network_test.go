package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

// probe issues count back-to-back single-outstanding transactions
// (pointer-chase style: the next issues only when the previous completes)
// and reports the latency histogram.
func probe(t *testing.T, net *Network, a Access, count int) *telemetry.Histogram {
	t.Helper()
	eng := net.Engine()
	var h telemetry.Histogram
	done := 0
	var issue func()
	issue = func() {
		net.Issue(a, nil, func(tx *txn.Transaction) {
			h.Record(tx.Latency())
			done++
			if done < count {
				issue()
			}
		})
	}
	issue()
	eng.Run()
	if done != count {
		t.Fatalf("probe completed %d of %d transactions", done, count)
	}
	return &h
}

func newNet(p *topology.Profile) *Network {
	return New(sim.New(42), p)
}

func checkNear(t *testing.T, h *telemetry.Histogram, want units.Time, tol units.Time, label string) {
	t.Helper()
	got := h.Mean()
	if got < want-tol || got > want+tol {
		t.Errorf("%s latency = %v, want %v (tol %v)", label, got, want, tol)
	}
}

func TestPointerChaseLatencyTable2(t *testing.T) {
	// Table 2 "Memory/Device" rows: single-outstanding DRAM latency per
	// DIMM position, and CXL on the 9634.
	type row struct {
		pos  topology.Position
		want units.Time
	}
	cases := []struct {
		prof *topology.Profile
		rows []row
		tol  units.Time
	}{
		{
			prof: topology.EPYC7302(),
			rows: []row{
				{topology.Near, 124 * units.Nanosecond},
				{topology.Vertical, 131 * units.Nanosecond},
				{topology.Horizontal, 141 * units.Nanosecond},
				{topology.Diagonal, 145 * units.Nanosecond},
			},
			tol: 4 * units.Nanosecond,
		},
		{
			prof: topology.EPYC9634(),
			rows: []row{
				{topology.Near, 141 * units.Nanosecond},
				{topology.Vertical, 145 * units.Nanosecond},
				{topology.Horizontal, 150 * units.Nanosecond},
				{topology.Diagonal, 149 * units.Nanosecond},
			},
			tol: 4 * units.Nanosecond,
		},
	}
	for _, c := range cases {
		for _, r := range c.rows {
			net := newNet(c.prof)
			umc, ok := c.prof.UMCAtPosition(0, r.pos)
			if !ok {
				t.Fatalf("%s: no %v channel", c.prof.Name, r.pos)
			}
			h := probe(t, net, Access{
				Src:  topology.CoreID{},
				Op:   txn.Read,
				Kind: DestDRAM,
				UMC:  umc,
			}, 2000)
			checkNear(t, h, r.want, c.tol, c.prof.Name+" "+r.pos.String())
		}
	}
}

func TestPointerChaseCXLTable2(t *testing.T) {
	net := newNet(topology.EPYC9634())
	h := probe(t, net, Access{Op: txn.Read, Kind: DestCXL, Module: 0}, 2000)
	checkNear(t, h, 243*units.Nanosecond, 5*units.Nanosecond, "9634 CXL")
}

func TestNTWriteLatencyNearRead(t *testing.T) {
	// Fig 3-d/e: low-load write latency is within a few ns of read latency
	// on both platforms (123.9 vs 123.7 ns, 144.1 vs 143.7 ns).
	for _, p := range topology.Profiles() {
		net := newNet(p)
		umc, _ := p.UMCAtPosition(0, topology.Near)
		h := probe(t, net, Access{Op: txn.NTWrite, Kind: DestDRAM, UMC: umc}, 2000)
		want := 124 * units.Nanosecond
		if p.Name == "EPYC 9634" {
			want = 144 * units.Nanosecond
		}
		checkNear(t, h, want, 5*units.Nanosecond, p.Name+" NT write")
	}
}

func TestIntraAndInterCCLatency(t *testing.T) {
	// Fig 3-a/c report ~144.5 ns (intra-CC) and ~142.5 ns (inter-CC)
	// unloaded IF transfer latency on the 7302. The profile fields are
	// pre-serialization/pre-jitter budgets; the measured values land on
	// the paper numbers.
	p7 := topology.EPYC7302()
	h := probe(t, newNet(p7), Access{Op: txn.Read, Kind: DestLLCIntra}, 1000)
	checkNear(t, h, units.Nanos(144.5), 4*units.Nanosecond, "7302 intra-CC")
	h = probe(t, newNet(p7), Access{Op: txn.Read, Kind: DestLLCInter, DstCCD: 1}, 1000)
	checkNear(t, h, units.Nanos(142.5), 4*units.Nanosecond, "7302 inter-CC")
	p9 := topology.EPYC9634()
	h = probe(t, newNet(p9), Access{Op: txn.Read, Kind: DestLLCIntra}, 1000)
	checkNear(t, h, p9.IntraCCLatency, 6*units.Nanosecond, "9634 intra-CC")
}

// TestElidedDepartsEqualMessages pins what the departure-stamp ring
// guarantees: every message's depart event is elided, exactly once, and
// nothing else is, so on a fresh network (no ResetStats) the engine's
// fused counter equals the messages summed over every channel. The
// temporal DRAM write counts its writebacks too: their nil-delivery sends
// leave only a stamp.
func TestElidedDepartsEqualMessages(t *testing.T) {
	kinds := []struct {
		name string
		a    Access
	}{
		{"dram", Access{Kind: DestDRAM, Op: txn.Read}},
		{"dram-write", Access{Kind: DestDRAM, Op: txn.Write}},
		{"cxl", Access{Kind: DestCXL, Op: txn.Read}},
		{"llc-intra", Access{Kind: DestLLCIntra, Op: txn.Read}},
		{"llc-inter", Access{Kind: DestLLCInter, DstCCD: 1, Op: txn.Read}},
	}
	for _, k := range kinds {
		net := newNet(topology.EPYC9634())
		net.DriveClosedLoop(k.a, 2*net.WindowFor(k.a.Op, k.a.Kind), 2000)
		var msgs uint64
		for _, ch := range net.Channels() {
			msgs += ch.Messages()
		}
		if msgs == 0 {
			t.Fatalf("%s: closed loop sent no messages", k.name)
		}
		if got := net.EventsFused(); got != msgs {
			t.Errorf("%s: %d departs elided, want one per message (%d)", k.name, got, msgs)
		}
	}
}
