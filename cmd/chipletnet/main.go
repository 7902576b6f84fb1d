// Command chipletnet inspects the chiplet network: it prints the
// device-tree hardware description (research direction #1's
// /sys/firmware/chiplet-net), the Table 2-style route decompositions, or a
// live /proc/chiplet-net telemetry snapshot taken under a sample load.
//
// Examples:
//
//	chipletnet -platform 9634 -view tree
//	chipletnet -platform 9634 -view json
//	chipletnet -platform 7302 -view routes
//	chipletnet -platform 9634 -view telemetry
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/devtree"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chipletnet: ")
	platform := flag.String("platform", "7302", "platform profile (7302 or 9634)")
	view := flag.String("view", "tree", "tree | json | routes | telemetry")
	flag.Parse()

	prof, ok := topology.ProfileByName(*platform)
	if !ok {
		log.Fatalf("unknown platform %q (want 7302 or 9634)", *platform)
	}

	switch *view {
	case "tree":
		fmt.Print(devtree.FromProfile(prof).Render())
	case "json":
		data, err := devtree.FromProfile(prof).JSON()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
	case "routes":
		printRoutes(prof)
	case "telemetry":
		printTelemetry(os.Stdout, prof)
	default:
		log.Fatalf("unknown view %q", *view)
	}
}

// printRoutes prints the Table 2-style path decompositions from chiplet 0
// to each memory position class and, when present, to CXL.
func printRoutes(p *topology.Profile) {
	fmt.Printf("Data-path decompositions on %s (from compute chiplet 0):\n\n", p.Name)
	for _, pos := range topology.Positions() {
		umc, ok := p.UMCAtPosition(0, pos)
		if !ok {
			continue
		}
		fmt.Printf("%-11s (umc%d): %s\n", pos, umc, mesh.MemoryRoute(p, 0, umc))
	}
	if p.CXLModules > 0 {
		fmt.Printf("%-11s        : %s\n", "cxl", mesh.CXLRoute(p, 0))
	}
	fmt.Printf("%-11s        : %s\n", "if-intra", mesh.IntraCCRoute(p))
	fmt.Printf("%-11s        : %s\n", "if-inter", mesh.InterCCRoute(p))
}

// printTelemetry runs a short mixed load and writes the per-link counters
// and the load's source/destination traffic matrix to w.
func printTelemetry(w io.Writer, p *topology.Profile) {
	eng := sim.New(42)
	net := core.New(eng, p)
	matrix := telemetry.NewTrafficMatrix()
	record := func(t *txn.Transaction) {
		matrix.Record(t.Flow.Src.String(), t.Flow.Dst.String(), t.Size)
	}
	var cores []topology.CoreID
	for ccx := 0; ccx < p.CCXPerCCD(); ccx++ {
		for c := 0; c < p.CoresPerCCX(); c++ {
			cores = append(cores, topology.CoreID{CCD: 0, CCX: ccx, Core: c})
		}
	}
	rd := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "sample-rd", Cores: cores, Op: txn.Read,
		Kind: core.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
		Observer: record,
	})
	wr := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "sample-wr", Cores: cores, Op: txn.NTWrite,
		Kind: core.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
		Demand: units.GBps(4), Observer: record,
	})
	rd.Start()
	wr.Start()
	eng.RunFor(100 * units.Microsecond)
	fmt.Fprint(w, devtree.Telemetry(net))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "traffic matrix (sample load, one compute chiplet):")
	fmt.Fprint(w, matrix.String())
}
