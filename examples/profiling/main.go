// Profiling: attach the per-flow profiler (the paper's research
// direction #5) and the /proc/chiplet-net telemetry view (direction #1) to
// a mixed workload, then print a perf-style report.
//
// The workload mixes a streaming reader, a write-back stream, and a CXL
// scanner across two compute chiplets — the kind of intertwined intra-host
// traffic the paper says is hard to observe with today's tools.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/devtree"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	prof := topology.EPYC9634()
	eng := sim.New(11)
	net := core.New(eng, prof)
	prf := profile.New(32)

	ccd := func(n, count int) []topology.CoreID {
		var out []topology.CoreID
		for c := 0; c < count; c++ {
			out = append(out, topology.CoreID{CCD: n, Core: c})
		}
		return out
	}
	flows := []traffic.FlowConfig{
		{
			Name: "reader", Cores: ccd(0, 4), Op: txn.Read,
			Kind: core.DestDRAM, UMCs: prof.UMCSet(topology.NPS4, 0),
			Demand: units.GBps(20), Jitter: true, Observer: prf.Observe,
		},
		{
			Name: "writer", Cores: ccd(0, 3), Op: txn.NTWrite,
			Kind: core.DestDRAM, UMCs: prof.UMCSet(topology.NPS4, 0),
			Demand: units.GBps(8), Jitter: true, Observer: prf.Observe,
		},
		{
			Name: "cxl-scan", Cores: ccd(1, 4), Op: txn.Read,
			Kind: core.DestCXL, Modules: []int{0, 1, 2, 3},
			Demand: units.GBps(15), Jitter: true, Observer: prf.Observe,
		},
	}
	for _, cfg := range flows {
		traffic.MustFlow(net, cfg).Start()
	}
	eng.RunFor(200 * units.Microsecond)

	fmt.Println(prf.Report(8))
	fmt.Println(devtree.Telemetry(net))
}
