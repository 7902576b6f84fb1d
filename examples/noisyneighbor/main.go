// Noisy neighbor: two tenants on different compute chiplets share one
// memory channel. Tenant A is a latency-sensitive service with a modest
// bandwidth demand; tenant B is a batch job that pushes as hard as it can.
//
// Under the chiplet network's native sender-driven partitioning (§3.5),
// the aggressive batch job squeezes the service below its demand. A
// global max-min traffic manager (the paper's Implication #4 proposal)
// restores the service's allocation. This is the paper's multi-tenancy
// motivation made concrete.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/trafficmgr"
	"repro/internal/txn"
	"repro/internal/units"
)

const sharedUMC = 0 // both tenants' pages live on channel 0

// tenants builds the two flows. Sender-driven tenants carry the adaptive
// injection controller (the hardware's native behaviour); managed tenants
// are plainly paced — the manager is their traffic control.
func tenants(net *core.Network, managed bool) (service, batch *traffic.Flow) {
	mk := func(name string, ccd int, demand units.Bandwidth) *traffic.Flow {
		cfg := traffic.FlowConfig{
			Name: name, Op: txn.Read,
			Kind: core.DestDRAM, UMCs: []int{sharedUMC},
			Cores: []topology.CoreID{
				{CCD: ccd, Core: 0}, {CCD: ccd, Core: 1}, {CCD: ccd, Core: 2}},
			Demand: demand,
		}
		if !managed {
			cfg.Window, cfg.Adaptive = 8, true
		}
		return traffic.MustFlow(net, cfg)
	}
	// Chiplets 2 and 3 are equidistant from channel 0 on the 9634.
	service = mk("service", 2, units.GBps(10))
	batch = mk("batch", 3, units.GBps(50)) // greedy: far beyond any fair share
	return service, batch
}

func run(managed bool) (service, batch units.Bandwidth, p999 units.Time) {
	prof := topology.EPYC9634()
	eng := sim.New(7)
	net := core.New(eng, prof)
	svc, bat := tenants(net, managed)

	if managed {
		mgr := trafficmgr.New(eng, 20*units.Microsecond)
		mgr.AddResource("umc0/rd", prof.UMCReadCap)
		for _, f := range []*traffic.Flow{svc, bat} {
			if err := mgr.Register(f, "umc0/rd"); err != nil {
				log.Fatal(err)
			}
		}
		mgr.Start()
	}

	svc.Start()
	bat.Start()
	eng.RunFor(1500 * units.Microsecond) // converge
	svc.ResetStats()
	bat.ResetStats()
	eng.RunFor(300 * units.Microsecond)
	return svc.Achieved(), bat.Achieved(), svc.Latency().P999()
}

func main() {
	log.SetFlags(0)
	fmt.Println("Two tenants share memory channel 0 (34.9 GB/s) on an EPYC 9634.")
	fmt.Println("service wants 10 GB/s; batch greedily requests 50 GB/s.")
	fmt.Println()

	s, b, tail := run(false)
	fmt.Printf("sender-driven (native):  service %6v  batch %6v  service P999 %v\n", s, b, tail)
	s, b, tail = run(true)
	fmt.Printf("max-min traffic manager: service %6v  batch %6v  service P999 %v\n", s, b, tail)
	fmt.Println()
	fmt.Println("The manager honors the service's demand and hands the batch job")
	fmt.Println("exactly the residual — no sender-side aggression required.")
}
