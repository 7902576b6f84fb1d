package harness

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/trafficmgr"
	"repro/internal/txn"
	"repro/internal/units"

	icore "repro/internal/core"
)

// A1Result compares sender-driven partitioning against the flow-aware
// traffic manager on one Figure 4 demand case: the design the paper's
// Implication #4 proposes, quantified.
type A1Result struct {
	Case             string
	DemandA, DemandB units.Bandwidth
	// SenderDriven is the baseline (adaptive sender windows, Fig 4).
	SenderA, SenderB units.Bandwidth
	// Managed is the same pair under max-min-fair management.
	ManagedA, ManagedB units.Bandwidth
}

// AblationTrafficManager reruns the Figure 4 UMC/GMI demand cases on the
// 9634 twice: once sender-driven (the hardware's traffic-oblivious
// behaviour) and once under the global max-min traffic manager. The
// managed runs honor the modest flow's demand and split residual
// bandwidth evenly — eliminating the aggressive-sender advantage.
func AblationTrafficManager(opt Options) ([]A1Result, error) {
	var sc Fig4Scenario
	for _, s := range Figure4Scenarios() {
		if s.Link == "UMC/GMI" && s.Profile().Name == "EPYC 9634" {
			sc = s
			break
		}
	}
	if sc.Profile == nil {
		return nil, fmt.Errorf("harness: UMC/GMI scenario missing")
	}

	baseline, err := Figure4Run(sc, opt)
	if err != nil {
		return nil, err
	}

	cases := Fig4Cases()
	return runCells(opt, len(cases), func(i int) (A1Result, error) {
		c := cases[i]
		p := sc.Profile()
		net := opt.newNet(p)
		cfgA, cfgB := sc.FlowA(p), sc.FlowB(p)
		// Managed flows need no sender-side adaptation: the manager paces.
		cfgA.Adaptive, cfgB.Adaptive = false, false
		cfgA.Window, cfgB.Window = 0, 0
		cfgA.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracA)
		cfgB.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracB)
		fa, err := traffic.NewFlow(net, cfgA)
		if err != nil {
			return A1Result{}, err
		}
		fb, err := traffic.NewFlow(net, cfgB)
		if err != nil {
			return A1Result{}, err
		}
		mgr := trafficmgr.New(net.Engine())
		mgr.AddResource("umc0/rd", p.UMCReadCap)
		if err := mgr.Register(fa, "umc0/rd"); err != nil {
			return A1Result{}, err
		}
		if err := mgr.Register(fb, "umc0/rd"); err != nil {
			return A1Result{}, err
		}
		fa.Start()
		fb.Start()
		mgr.Start()
		net.Engine().RunFor(opt.scale(100 * units.Microsecond))
		fa.ResetStats()
		fb.ResetStats()
		net.Engine().RunFor(opt.scale(200 * units.Microsecond))

		return A1Result{
			Case:    c.Name,
			DemandA: cfgA.Demand, DemandB: cfgB.Demand,
			SenderA: baseline[i].AchievedA, SenderB: baseline[i].AchievedB,
			ManagedA: fa.Achieved(), ManagedB: fb.Achieved(),
		}, nil
	})
}

// RenderA1 renders the traffic-manager ablation.
func RenderA1(rows []A1Result) string {
	out := [][]string{{"Case", "Demand A/B", "Sender-driven A/B", "Managed (max-min) A/B"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Case,
			gb(r.DemandA) + "/" + gb(r.DemandB),
			gb(r.SenderA) + "/" + gb(r.SenderB),
			gb(r.ManagedA) + "/" + gb(r.ManagedB),
		})
	}
	return "Ablation A1 — sender-driven vs traffic-managed partitioning (EPYC 9634, shared UMC)\n" +
		renderTable(out)
}

// A2Result is one NPS configuration's latency and bandwidth from one
// chiplet: the locality/parallelism trade the paper's Implication #1
// discusses (Sub-NUMA Clustering).
type A2Result struct {
	Profile  string
	NPS      topology.NPS
	Channels int
	Latency  units.Time      // unloaded pointer-chase across the set
	ReadBW   units.Bandwidth // one chiplet, closed-loop reads
}

// AblationNPS measures how the NPS setting trades memory latency against
// the bandwidth one chiplet can draw: NPS4 keeps traffic on near channels
// (lowest latency, fewest channels), NPS1 stripes across the whole die.
func AblationNPS(p *topology.Profile, opt Options) ([]A2Result, error) {
	npss := []topology.NPS{topology.NPS1, topology.NPS2, topology.NPS4}
	return runCells(opt, len(npss), func(i int) (A2Result, error) {
		nps := npss[i]
		set := p.UMCSet(nps, 0)

		net := opt.newNet(p)
		h, err := traffic.RunPointerChase(net, traffic.ChaseConfig{
			WorkingSet: units.GiB, UMCs: set, Count: 2000,
		})
		if err != nil {
			return A2Result{}, err
		}

		net = opt.newNet(p)
		f := traffic.MustFlow(net, traffic.FlowConfig{
			Name: "nps", Cores: ccdCores(p, 0), Op: txn.Read,
			Kind: icore.DestDRAM, UMCs: set,
		})
		f.Start()
		net.Engine().RunFor(opt.scale(25 * units.Microsecond))
		f.ResetStats()
		net.Engine().RunFor(opt.scale(50 * units.Microsecond))

		return A2Result{
			Profile: p.Name, NPS: nps, Channels: len(set),
			Latency: h.Mean(), ReadBW: f.Achieved(),
		}, nil
	})
}

// RenderA2 renders the NPS ablation.
func RenderA2(rows []A2Result) string {
	out := [][]string{{"Profile", "NPS", "Channels", "Latency (ns)", "1-CCD read (GB/s)"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Profile, r.NPS.String(), fmt.Sprintf("%d", r.Channels),
			ns(r.Latency), gb(r.ReadBW),
		})
	}
	return "Ablation A2 — NPS interleaving: latency vs per-chiplet bandwidth\n" + renderTable(out)
}
