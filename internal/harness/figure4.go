package harness

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"

	icore "repro/internal/core"
)

// Fig4Scenario describes two competing flows sharing one link.
type Fig4Scenario struct {
	Profile  func() *topology.Profile
	Link     string // "IF", "UMC/GMI", "P Link"
	Capacity units.Bandwidth
	FlowA    func(*topology.Profile) traffic.FlowConfig
	FlowB    func(*topology.Profile) traffic.FlowConfig
	// Converge is the warmup before measuring: the injection controllers
	// need ~90 adaptation epochs, so links with the slow P-link epoch
	// (62 us) converge in milliseconds — the simulated counterpart of the
	// paper's hundreds-of-milliseconds hardware time constants.
	Converge units.Time
}

// Fig4Case is one demand pair, expressed as fractions of the shared-link
// capacity. The four cases follow the paper's Figure 4: under-subscribed;
// one flow below the equal share; equal over-subscribing demands; and
// unequal over-subscribing demands.
type Fig4Case struct {
	Name         string
	FracA, FracB float64
}

// Fig4Cases lists the paper's four demand configurations.
func Fig4Cases() []Fig4Case {
	return []Fig4Case{
		{Name: "case1 under-subscribed", FracA: 0.30, FracB: 0.45},
		{Name: "case2 one below share", FracA: 0.30, FracB: 1.50},
		{Name: "case3 equal demands", FracA: 0.90, FracB: 0.90},
		{Name: "case4 unequal demands", FracA: 0.70, FracB: 1.40},
	}
}

// Fig4Result is the outcome of one (scenario, case) cell.
type Fig4Result struct {
	Profile, Link, Case            string
	DemandA, DemandB               units.Bandwidth
	AchievedA, AchievedB, Capacity units.Bandwidth
}

// adaptiveFlow builds a flow config with the §3.5 injection controller on.
func adaptiveFlow(name string, cores []topology.CoreID, op txn.Op, kind icore.DestKind, umcs, mods []int, dstCCD int) traffic.FlowConfig {
	return traffic.FlowConfig{
		Name: name, Cores: cores, Op: op, Kind: kind,
		UMCs: umcs, Modules: mods, DstCCD: dstCCD,
		Window: 8, Adaptive: true,
	}
}

// ccxCores enumerates the cores of one CCX.
func ccxCores(p *topology.Profile, ccd, ccx int) []topology.CoreID {
	var out []topology.CoreID
	for c := 0; c < p.CoresPerCCX(); c++ {
		out = append(out, topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
	}
	return out
}

// Figure4Scenarios lists the shared-link settings: on the 9634, the
// intra-chiplet Infinity Fabric, a shared memory channel (the GMI/UMC
// boundary; chiplets 2 and 3 are equidistant from channel 0), and a shared
// P link; on the 7302, the inter-chiplet IF (two chiplets targeting the
// same remote LLC) and a shared memory channel off one chiplet's two CCXs.
func Figure4Scenarios() []Fig4Scenario {
	return []Fig4Scenario{
		{
			Profile: topology.EPYC9634, Link: "IF", Capacity: units.GBps(33), Converge: 1500 * units.Microsecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", firstCores(p, 3), txn.Read, icore.DestLLCIntra, nil, nil, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				cs := ccdCores(p, 0)[3:7]
				return adaptiveFlow("B", cs, txn.Read, icore.DestLLCIntra, nil, nil, 0)
			},
		},
		{
			Profile: topology.EPYC9634, Link: "UMC/GMI", Capacity: units.GBps(34.9), Converge: 1500 * units.Microsecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccxCores(p, 2, 0)[:5], txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccxCores(p, 3, 0)[:5], txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
		},
		{
			Profile: topology.EPYC9634, Link: "P Link", Capacity: units.GBps(22), Converge: 6 * units.Millisecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccxCores(p, 2, 0)[:5], txn.Read, icore.DestCXL, nil, []int{0}, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccxCores(p, 3, 0)[:5], txn.Read, icore.DestCXL, nil, []int{0}, 0)
			},
		},
		{
			Profile: topology.EPYC7302, Link: "IF", Capacity: units.GBps(24), Converge: 2 * units.Millisecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccdCores(p, 0), txn.Read, icore.DestLLCInter, nil, nil, 1)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccdCores(p, 2), txn.Read, icore.DestLLCInter, nil, nil, 1)
			},
		},
		{
			Profile: topology.EPYC7302, Link: "UMC/GMI", Capacity: units.GBps(21.1), Converge: 1500 * units.Microsecond,
			FlowA: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("A", ccxCores(p, 0, 0), txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
			FlowB: func(p *topology.Profile) traffic.FlowConfig {
				return adaptiveFlow("B", ccxCores(p, 0, 1), txn.Read, icore.DestDRAM, []int{0}, nil, 0)
			},
		},
	}
}

// figure4Cell runs one (scenario, demand case) cell on a private engine,
// with obs recording the steady-state measurement window.
func figure4Cell(sc Fig4Scenario, c Fig4Case, opt Options, obs Observers) (Fig4Result, CellPerf, error) {
	p := sc.Profile()
	net := opt.newNet(p)
	obs.attach(net)
	cfgA, cfgB := sc.FlowA(p), sc.FlowB(p)
	cfgA.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracA)
	cfgB.Demand = units.Bandwidth(float64(sc.Capacity) * c.FracB)
	fa, err := traffic.NewFlow(net, cfgA)
	if err != nil {
		return Fig4Result{}, CellPerf{}, err
	}
	fb, err := traffic.NewFlow(net, cfgB)
	if err != nil {
		return Fig4Result{}, CellPerf{}, err
	}
	fa.Start()
	fb.Start()
	// Convergence time is set by the adaptation epochs, which model
	// hardware time constants — it must not shrink with TimeScale.
	eng := net.Engine()
	eng.RunFor(sc.Converge)
	fa.ResetStats()
	fb.ResetStats()
	obs.measure(eng, func() { eng.RunFor(opt.scale(600 * units.Microsecond)) })
	perf := CellPerf{Events: net.EventsExecuted(), Fused: net.EventsFused()}
	return Fig4Result{
		Profile: p.Name, Link: sc.Link, Case: c.Name,
		DemandA: cfgA.Demand, DemandB: cfgB.Demand,
		AchievedA: fa.Achieved(), AchievedB: fb.Achieved(),
		Capacity: sc.Capacity,
	}, perf, nil
}

// Figure4Run evaluates one scenario across the four demand cases.
func Figure4Run(sc Fig4Scenario, opt Options) ([]Fig4Result, error) {
	cases := Fig4Cases()
	return runCells(opt, len(cases), func(i int) (Fig4Result, error) {
		res, _, err := figure4Cell(sc, cases[i], opt, Observers{})
		return res, err
	})
}

// Figure4 evaluates every scenario and case, one cell per
// (scenario, case) pair across the worker pool.
func Figure4(opt Options) ([]Fig4Result, error) {
	scs := Figure4Scenarios()
	cases := Fig4Cases()
	return runCells(opt, len(scs)*len(cases), func(i int) (Fig4Result, error) {
		res, _, err := figure4Cell(scs[i/len(cases)], cases[i%len(cases)], opt, Observers{})
		return res, err
	})
}

// RenderFigure4 renders the partition grid as text.
func RenderFigure4(rows []Fig4Result) string {
	out := [][]string{{"Profile", "Link", "Case", "Demand A/B (GB/s)", "Achieved A/B (GB/s)", "Equal share"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Profile, r.Link, r.Case,
			gb(r.DemandA) + "/" + gb(r.DemandB),
			gb(r.AchievedA) + "/" + gb(r.AchievedB),
			fmt.Sprintf("%.1f", r.Capacity.GBpsValue()/2),
		})
	}
	return "Figure 4 — bandwidth partitioning of two competing flows\n" + renderTable(out)
}
