// Command chipletbench is the micro-benchmark utility of the paper's
// §3.1: it generates configurable data flows — pointer chases or
// rate-controlled streams, read or write, to DRAM, CXL, or another
// chiplet's cache — across the simulated chiplet network and reports
// latency and bandwidth.
//
// Examples:
//
//	chipletbench -platform 9634 -mode chase -ws 1GiB -nps 4
//	chipletbench -platform 7302 -mode bandwidth -op read -cores 16
//	chipletbench -platform 9634 -mode bandwidth -dest cxl -cores 7 -demand 20
//	chipletbench -platform 9634 -mode latency -dest llc-intra -cores 7 -demand 25
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/profiling"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chipletbench: ")

	platform := flag.String("platform", "7302", "platform profile (7302 or 9634)")
	mode := flag.String("mode", "bandwidth", "chase | latency | bandwidth")
	op := flag.String("op", "read", "read | write | ntwrite")
	dest := flag.String("dest", "dram", "dram | cxl | llc-intra | llc-inter")
	cores := flag.Int("cores", 1, "number of issuing cores (CCD-major order)")
	demand := flag.Float64("demand", 0, "paced demand in GB/s (0 = closed loop)")
	ws := flag.String("ws", "1GiB", "working set for chase mode (e.g. 16KiB, 8MiB, 1GiB)")
	nps := flag.Int("nps", 1, "NPS configuration: 1, 2 or 4")
	dstCCD := flag.Int("dst-ccd", 1, "target chiplet for llc-inter")
	duration := flag.Int("duration", 100, "measurement window, microseconds")
	seed := flag.Uint64("seed", 42, "simulation seed")
	showProfile := flag.Bool("profile", false, "print a per-flow profile report")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile (post-GC heap) to this file")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	if err := checkFlags(*mode, *duration, *demand); err != nil {
		log.Fatal(err)
	}
	prof, ok := topology.ProfileByName(*platform)
	if !ok {
		log.Fatalf("unknown platform %q (want 7302 or 9634)", *platform)
	}
	opv, err := parseOp(*op)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := parseDest(*dest)
	if err != nil {
		log.Fatal(err)
	}
	npsv := topology.NPS(*nps)
	switch npsv {
	case topology.NPS1, topology.NPS2, topology.NPS4:
	default:
		log.Fatalf("invalid -nps %d (want 1, 2 or 4)", *nps)
	}

	eng := sim.New(*seed)
	net := core.New(eng, prof)

	if *mode == "chase" {
		size, err := parseSize(*ws)
		if err != nil {
			log.Fatal(err)
		}
		runChase(net, prof, size, npsv, kind)
		return
	}

	cfg := traffic.FlowConfig{
		Name:   "bench",
		Cores:  coreList(prof, *cores),
		Op:     opv,
		Kind:   kind,
		DstCCD: *dstCCD,
		Demand: units.GBps(*demand),
		Jitter: *demand > 0,
	}
	switch kind {
	case core.DestDRAM:
		cfg.UMCs = prof.UMCSet(npsv, 0)
	case core.DestCXL:
		for m := 0; m < prof.CXLModules; m++ {
			cfg.Modules = append(cfg.Modules, m)
		}
	}
	window := units.Time(*duration) * units.Microsecond
	f, prf, err := measure(net, cfg, window, *showProfile)
	if err != nil {
		log.Fatal(err)
	}

	h := f.Latency()
	fmt.Printf("platform   %s\n", prof.Name)
	fmt.Printf("workload   %v -> %v, %d core(s), demand %s\n",
		opv, kind, len(cfg.Cores), demandString(*demand))
	fmt.Printf("achieved   %v over %v (%d ops)\n", f.Achieved(), window, h.Count())
	fmt.Printf("latency    mean=%v p50=%v p99=%v p999=%v max=%v\n",
		h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
	if prf != nil {
		fmt.Println()
		fmt.Println(prf.Report(10))
	}
}

// measure starts a flow, warms it up for half the window, resets its
// statistics and runs the measurement window. When profiled, it also
// returns a profiler that saw exactly the measurement window's
// completions.
func measure(net *core.Network, cfg traffic.FlowConfig, window units.Time, profiled bool) (*traffic.Flow, *profile.Profiler, error) {
	var prf *profile.Profiler
	if profiled {
		// The flow keeps its own copy of cfg, so the observer must read
		// prf when each transaction completes, not when the flow is built.
		cfg.Observer = func(t *txn.Transaction) {
			if prf != nil {
				prf.Observe(t)
			}
		}
	}
	f, err := traffic.NewFlow(net, cfg)
	if err != nil {
		return nil, nil, err
	}
	f.Start()
	eng := net.Engine()
	eng.RunFor(window / 2) // warmup
	f.ResetStats()
	if profiled {
		prf = profile.New(64)
	}
	eng.RunFor(window)
	return f, prf, nil
}

func runChase(net *core.Network, prof *topology.Profile, ws units.ByteSize, nps topology.NPS, kind core.DestKind) {
	cfg := traffic.ChaseConfig{WorkingSet: ws, Count: 5000}
	switch kind {
	case core.DestDRAM:
		cfg.UMCs = prof.UMCSet(nps, 0)
	case core.DestCXL:
		cfg.CXL = true
		for m := 0; m < prof.CXLModules; m++ {
			cfg.Modules = append(cfg.Modules, m)
		}
	default:
		log.Fatalf("chase mode targets dram or cxl, not %v", kind)
	}
	h, err := traffic.RunPointerChase(net, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform   %s\n", prof.Name)
	fmt.Printf("chase      ws=%v %s, %v\n", ws, nps, kind)
	fmt.Printf("latency    mean=%v p50=%v p99=%v p999=%v\n",
		h.Mean(), h.P50(), h.P99(), h.P999())
}

// checkFlags refuses an unknown -mode, a non-positive -duration and a
// negative or NaN -demand, which would otherwise run as something else.
func checkFlags(mode string, duration int, demand float64) error {
	switch mode {
	case "chase", "latency", "bandwidth":
	default:
		return fmt.Errorf("unknown -mode %q (want chase, latency or bandwidth)", mode)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration %d must be positive", duration)
	}
	if !(demand >= 0) {
		return fmt.Errorf("-demand %v must be a non-negative rate", demand)
	}
	return nil
}

func parseOp(s string) (txn.Op, error) {
	switch s {
	case "read":
		return txn.Read, nil
	case "write":
		return txn.Write, nil
	case "ntwrite":
		return txn.NTWrite, nil
	}
	return 0, fmt.Errorf("unknown op %q (want read, write or ntwrite)", s)
}

func parseDest(s string) (core.DestKind, error) {
	switch s {
	case "dram":
		return core.DestDRAM, nil
	case "cxl":
		return core.DestCXL, nil
	case "llc-intra":
		return core.DestLLCIntra, nil
	case "llc-inter":
		return core.DestLLCInter, nil
	}
	return 0, fmt.Errorf("unknown dest %q", s)
}

// parseSize understands 64B, 32KiB, 8MiB, 1GiB and bare byte counts: a
// positive whole number and at most one unit suffix, nothing else.
func parseSize(s string) (units.ByteSize, error) {
	num, mult := s, units.ByteSize(1)
	switch {
	case strings.HasSuffix(s, "GiB"):
		num, mult = strings.TrimSuffix(s, "GiB"), units.GiB
	case strings.HasSuffix(s, "MiB"):
		num, mult = strings.TrimSuffix(s, "MiB"), units.MiB
	case strings.HasSuffix(s, "KiB"):
		num, mult = strings.TrimSuffix(s, "KiB"), units.KiB
	case strings.HasSuffix(s, "B"):
		num = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n <= 0 || n > math.MaxInt64/int64(mult) {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return units.ByteSize(n) * mult, nil
}

func coreList(p *topology.Profile, n int) []topology.CoreID {
	if n <= 0 || n > p.Cores {
		log.Printf("clamping -cores to [1, %d]", p.Cores)
		if n <= 0 {
			n = 1
		} else {
			n = p.Cores
		}
	}
	var out []topology.CoreID
	for ccd := 0; ccd < p.CCDs && len(out) < n; ccd++ {
		for ccx := 0; ccx < p.CCXPerCCD() && len(out) < n; ccx++ {
			for c := 0; c < p.CoresPerCCX() && len(out) < n; c++ {
				out = append(out, topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
			}
		}
	}
	return out
}

func demandString(d float64) string {
	if d <= 0 {
		return "max (closed loop)"
	}
	return fmt.Sprintf("%.1f GB/s", d)
}

func init() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chipletbench [flags]\n\n")
		flag.PrintDefaults()
	}
}
