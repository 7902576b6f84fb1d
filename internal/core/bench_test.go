package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/txn"
)

// benchIssueCase measures the steady-state cost of one transaction shape.
// The warmup drives enough transactions to populate every free list,
// histogram bucket and waiter slice the case can touch; the measured
// window must then be allocation-free (ci.sh gates this at 0 allocs/op).
func benchIssueCase(b *testing.B, a Access, loaded bool) {
	eng := sim.New(1)
	net := New(eng, topology.EPYC9634())
	chains := 1
	if loaded {
		// Twice the hardware window: every chain beyond the window waits
		// on tokens, so the case exercises pool queueing and backpressure.
		chains = 2 * net.WindowFor(a.Op, a.Kind)
	}
	net.DriveClosedLoop(a, chains, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	net.DriveClosedLoop(a, chains, b.N)
}

// BenchmarkNetworkIssue covers every DestKind x Op pair, unloaded (one
// closed-loop chain) and loaded (2x the hardware window in flight) — the
// regression gate for the zero-allocation transaction pipeline.
func BenchmarkNetworkIssue(b *testing.B) {
	kinds := []struct {
		name string
		a    Access
	}{
		{"dram", Access{Kind: DestDRAM}},
		{"cxl", Access{Kind: DestCXL}},
		{"llc-intra", Access{Kind: DestLLCIntra}},
		{"llc-inter", Access{Kind: DestLLCInter, DstCCD: 1}},
	}
	ops := []struct {
		name string
		op   txn.Op
	}{
		{"read", txn.Read},
		{"write", txn.Write},
		{"ntwrite", txn.NTWrite},
	}
	for _, k := range kinds {
		for _, o := range ops {
			a := k.a
			a.Op = o.op
			b.Run(k.name+"/"+o.name+"/unloaded", func(b *testing.B) {
				benchIssueCase(b, a, false)
			})
			b.Run(k.name+"/"+o.name+"/loaded", func(b *testing.B) {
				benchIssueCase(b, a, true)
			})
		}
	}
}

// BenchmarkNew times building each platform's network on an existing
// engine: the construction every experiment cell pays. ci.sh holds it to
// at most 64 allocs/op and the bytes TestNewAllocs allows.
func BenchmarkNew(b *testing.B) {
	for _, p := range topology.Profiles() {
		b.Run(strings.ReplaceAll(p.Name, " ", ""), func(b *testing.B) {
			eng := sim.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(eng, p)
			}
		})
	}
}

// BenchmarkAttach times attaching each observer to a freshly built
// network of each platform; building the network and the observer is not
// timed. ci.sh holds it to the allocations TestAttachAllocs allows.
func BenchmarkAttach(b *testing.B) {
	for _, a := range attaches {
		for _, p := range topology.Profiles() {
			b.Run(a.name+"/"+strings.ReplaceAll(p.Name, " ", ""), func(b *testing.B) {
				eng := sim.New(1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					attach := a.attach(New(eng, p))
					b.StartTimer()
					attach()
				}
			})
		}
	}
}
