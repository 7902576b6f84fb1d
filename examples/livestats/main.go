// Live congestion observability: watching the anomaly detector catch a
// bottleneck the moment it appears.
//
// A victim flow reads DRAM channel 0 from chiplet 2 of the EPYC 9634 at
// a comfortable rate. Two virtual "seconds" in (200 us simulated,
// 1:1000), an aggressor on chiplet 3 starts hammering the same channel.
// A metrics registry harvests every 100 us of simulated time — the
// paper's 100 ms Infinity Fabric harvest interval — and the online
// anomaly detectors (internal/anomaly) watch every harvested window as
// it is recorded.
//
// The incident stream tells the story by itself: the quiet windows
// before the aggressor produce nothing, then the onset window fires one
// incident naming umc0/rd — already carrying the window's bottleneck
// attribution — and the incident stays open while the channel is
// saturated. No post-processing, no tracing: the detector's view is the
// same OnHarvest hook a live dashboard would ride.
//
// The detectors only read the registry's windows, so the instrumented
// run executes the exact same event sequence as an uninstrumented one.
package main

import (
	"fmt"
	"log"

	"repro/internal/anomaly"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

// ccxCores picks n cores of one CCX.
func ccxCores(ccd, ccx, n int) []topology.CoreID {
	var out []topology.CoreID
	for c := 0; c < n; c++ {
		out = append(out, topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
	}
	return out
}

func main() {
	prof := topology.EPYC9634()
	eng := sim.New(7)
	net := core.New(eng, prof)

	reg := metrics.New(metrics.Config{}) // default 100 us window
	net.AttachMetrics(reg)

	// The detectors attach to the registry's harvest hook. MinRate 0.25
	// keeps the victim's own light queueing under the onset floor, so the
	// only incident is the aggressor's: a resource must average a quarter
	// of a waiter per window before an onset can open.
	mon := anomaly.Attach(reg, anomaly.Config{MinRate: 0.25})
	mon.OnIncident(func(in anomaly.Incident) {
		fmt.Println(anomaly.RenderIncident(in))
	})

	victim, err := traffic.NewFlow(net, traffic.FlowConfig{
		Name: "victim", Cores: ccxCores(2, 0, 5),
		Op: txn.Read, Kind: core.DestDRAM, UMCs: []int{0},
		Demand: units.GBps(12), // open loop, no §3.5 manager: raw sharing

	})
	if err != nil {
		log.Fatal(err)
	}
	aggressor, err := traffic.NewFlow(net, traffic.FlowConfig{
		Name: "aggressor", Cores: ccxCores(3, 0, 5),
		Op: txn.Read, Kind: core.DestDRAM, UMCs: []int{0},
		Demand: units.GBps(30),
	})
	if err != nil {
		log.Fatal(err)
	}

	victim.Start()
	var before units.Bandwidth
	eng.At(200*units.Microsecond, func() {
		before = victim.Achieved()
		victim.ResetStats() // measure the victim from the onset only
		aggressor.Start()
	})

	// A one-line pulse per window, dashboard-style: the detector state
	// alongside the window index. Incidents print via OnIncident above
	// the moment they open or clear.
	reg.OnHarvest(func() {
		w := reg.Total() - 1
		fmt.Printf("window %d [%v, %v): %d incidents, %d open\n",
			w, reg.WindowStart(w), reg.WindowEnd(w),
			mon.NumIncidents(), len(mon.OpenIncidents()))
	})
	reg.Start(eng)
	eng.RunUntil(600 * units.Microsecond)
	reg.Stop()

	fmt.Println()
	fmt.Print(anomaly.Report(mon.Incidents()))
	fmt.Printf("\nvictim (demand %v): %v alone, %v under contention — its bandwidth "+
		"survives while the latency cost lands on the saturated channel the incident names\n",
		units.GBps(12), before, victim.Achieved())
}
