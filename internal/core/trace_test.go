package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/units"
)

// traceWorkload issues a contended mix over every destination kind and
// op: enough copies that token windows stall and bounded queues push
// back, so all span causes appear. Returns completion times in
// completion order.
func traceWorkload(n *core.Network) []units.Time {
	accesses := []core.Access{
		{Src: topology.CoreID{CCD: 0}, Op: txn.Read, Kind: core.DestDRAM, UMC: 0},
		{Src: topology.CoreID{CCD: 0}, Op: txn.Write, Kind: core.DestDRAM, UMC: 1},
		{Src: topology.CoreID{CCD: 1, Core: 2}, Op: txn.NTWrite, Kind: core.DestDRAM, UMC: 0},
		{Src: topology.CoreID{CCD: 0, Core: 1}, Op: txn.Read, Kind: core.DestCXL, Module: 0},
		{Src: topology.CoreID{CCD: 1}, Op: txn.NTWrite, Kind: core.DestCXL, Module: 0},
		{Src: topology.CoreID{CCD: 0}, Op: txn.Read, Kind: core.DestLLCIntra},
		{Src: topology.CoreID{CCD: 2, Core: 3}, Op: txn.Write, Kind: core.DestLLCIntra},
		{Src: topology.CoreID{CCD: 0, Core: 4}, Op: txn.Read, Kind: core.DestLLCInter, DstCCD: 2},
		{Src: topology.CoreID{CCD: 3}, Op: txn.NTWrite, Kind: core.DestLLCInter, DstCCD: 1},
	}
	var done []units.Time
	for rep := 0; rep < 40; rep++ {
		for _, a := range accesses {
			n.Issue(a, nil, func(t *txn.Transaction) {
				done = append(done, t.Completed)
			})
		}
	}
	n.Engine().Run()
	return done
}

// TestTraceTilesTransactionLatency is the flight recorder's core
// guarantee: for every completed transaction, the recorded spans tile
// [Issued, Completed] exactly — their durations sum to the end-to-end
// latency with zero residual, at picosecond resolution, across all
// destination kinds, ops, window stalls and backpressure. A device
// doorbell is one more numbered transaction; the DMA chunks and
// completion records that no core issues trace as id 0, counted only in
// the per-hop registry.
func TestTraceTilesTransactionLatency(t *testing.T) {
	eng := sim.New(7)
	n := core.New(eng, topology.EPYC9634())
	toDev := link.NewChannel(eng, "dev/todev", 24*units.Bandwidth(units.GB), 12*units.Nanosecond, 96)
	toHost := link.NewChannel(eng, "dev/tohost", 24*units.Bandwidth(units.GB), 12*units.Nanosecond, 0)
	n.AttachDevice(toDev, toHost, nil, nil)
	tr := trace.New(trace.Config{})
	n.AttachTracer(tr)
	tr.Enable()
	var doorbell uint64
	n.Issue(core.Access{Op: txn.NTWrite, Kind: core.DestDevice}, nil, func(t *txn.Transaction) {
		doorbell = t.ID
	})
	nop := func() {}
	n.DMA(0, 4*units.KiB, true, nop)
	n.DMA(1, 4*units.KiB, false, nop)
	n.Notify(0, nop)
	done := traceWorkload(n)
	if len(done) != 360 || doorbell == 0 {
		t.Fatalf("completed %d transactions and doorbell %d, want 360 and a numbered doorbell", len(done), doorbell)
	}
	if tr.TxnCount() != 361 {
		t.Fatalf("tracer recorded %d transactions, want 361", tr.TxnCount())
	}
	// Each lane carried the doorbell or a completion record and one DMA
	// chunk; only the doorbell's spans carry a transaction id.
	for _, ch := range []*link.Channel{toDev, toHost} {
		if c := tr.Counters(ch.Hop()); c.Meter.Ops() != 2 {
			t.Errorf("%s: registry counts %d messages, want 2", ch.Name(), c.Meter.Ops())
		}
	}
	infra := map[trace.HopID]int{}
	tr.EachSpan(func(s trace.Span) {
		if s.Hop != toDev.Hop() && s.Hop != toHost.Hop() {
			return
		}
		switch s.Txn {
		case 0:
			infra[s.Hop]++
		case doorbell:
			if s.Hop != toDev.Hop() {
				t.Errorf("doorbell span on %s", toHost.Name())
			}
		default:
			t.Errorf("device lane span attributed to transaction %d", s.Txn)
		}
	})
	if infra[toDev.Hop()] == 0 || infra[toHost.Hop()] == 0 {
		t.Errorf("id-0 spans per device lane = %v, want some on both", infra)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("span ring wrapped (%d dropped) — enlarge SpanCap for this test", tr.Dropped())
	}
	bad := 0
	for _, r := range tr.Reconcile() {
		if r.Residual != 0 {
			bad++
			if bad <= 5 {
				t.Errorf("txn %d: latency %v, spans cover %v (residual %v)",
					r.Txn.ID, r.Txn.Latency(), r.Attributed, r.Residual)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d/361 transactions have non-zero residual", bad)
	}
	// The streaming aggregates must agree: every picosecond of every
	// transaction's latency attributed to a named cause.
	var attributed units.Time
	for _, d := range tr.AttributedTime() {
		attributed += d
	}
	if attributed != tr.TotalLatency() {
		t.Fatalf("aggregate attribution %v != total latency %v", attributed, tr.TotalLatency())
	}
	// The contended mix must actually exercise the interesting causes.
	attr := tr.AttributedTime()
	for _, c := range []trace.Cause{trace.CauseQueued, trace.CauseWindowStalled,
		trace.CauseSerializing, trace.CausePropagating, trace.CauseProcessing, trace.CauseService} {
		if attr[c] == 0 {
			t.Errorf("cause %v never attributed — workload not contended enough", c)
		}
	}
}

// TestTracingDoesNotPerturb: the same seeded workload must complete at
// identical times with and without an enabled tracer attached — tracing
// observes the simulation, it must never steer it.
func TestTracingDoesNotPerturb(t *testing.T) {
	run := func(withTracer bool) []units.Time {
		eng := sim.New(99)
		n := core.New(eng, topology.EPYC9634())
		if withTracer {
			tr := trace.New(trace.Config{})
			n.AttachTracer(tr)
			tr.Enable()
		}
		return traceWorkload(n)
	}
	plain := run(false)
	traced := run(true)
	if len(plain) != len(traced) {
		t.Fatalf("completion counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("completion %d differs: %v untraced vs %v traced", i, plain[i], traced[i])
		}
	}
}
