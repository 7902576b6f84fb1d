package harness

import (
	"repro/internal/numa"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"

	icore "repro/internal/core"
)

// A3Result compares local and remote-socket memory on the dual-socket
// Dell 7525 model: one more tier in the "network of heterogeneous
// networks", with its own latency step and bandwidth ceiling (xGMI).
type A3Result struct {
	Tier    string
	Latency units.Time
	ReadBW  units.Bandwidth
	Ceiling string
}

// AblationNUMA measures the local and remote memory tiers of a two-socket
// EPYC 7302 system: unloaded pointer-chase latency and the whole-socket
// read ceiling of each tier.
func AblationNUMA(opt Options) ([]A3Result, error) {
	// Three cells: the latency chases (which share one dual-socket system
	// and must stay back-to-back on its engine), and the two independent
	// bandwidth saturations.
	type a3meas struct {
		localLat, remoteLat units.Time
		bw                  units.Bandwidth
	}
	cells, err := runCells(opt, 3, func(i int) (a3meas, error) {
		switch i {
		case 0:
			sys := opt.newSystem()
			return a3meas{
				localLat: chase(sys, func(done func(*txn.Transaction)) {
					sys.Socket(0).Issue(icore.Access{Op: txn.Read, Kind: icore.DestDRAM, UMC: 0}, nil, done)
				}),
				remoteLat: chase(sys, func(done func(*txn.Transaction)) {
					sys.IssueRemote(0, topology.CoreID{}, txn.Read, 0, done)
				}),
			}, nil
		case 1:
			return a3meas{bw: socketReadBW(opt)}, nil
		default:
			return a3meas{bw: remoteReadBW(opt)}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	p := topology.EPYC7302()
	localLat, remoteLat := cells[0].localLat, cells[0].remoteLat
	localBW, remoteBW := cells[1].bw, cells[2].bw

	return []A3Result{
		{Tier: "local DRAM (near)", Latency: localLat, ReadBW: localBW,
			Ceiling: "NoC routing (" + p.NoCReadCap.String() + ")"},
		{Tier: "remote DRAM (xGMI)", Latency: remoteLat, ReadBW: remoteBW,
			Ceiling: "xGMI link (" + numa.XGMIReadCap.String() + ")"},
	}, nil
}

// chase runs 1000 dependent loads back to back on sys's engine, each
// issued by issue with the callback that starts the next, and reports
// their mean latency.
func chase(sys *numa.System, issue func(done func(*txn.Transaction))) units.Time {
	const count = 1000
	var h telemetry.Histogram
	n := 0
	var record func(*txn.Transaction)
	record = func(t *txn.Transaction) {
		h.Record(t.Latency())
		n++
		if n < count {
			issue(record)
		}
	}
	issue(record)
	sys.Engine().Run()
	return h.Mean()
}

func socketReadBW(opt Options) units.Bandwidth {
	p := topology.EPYC7302()
	net := opt.newNet(p)
	f := traffic.MustFlow(net, traffic.FlowConfig{
		Name: "local", Cores: allCores(p), Op: txn.Read,
		Kind: icore.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
	})
	f.Start()
	net.Engine().RunFor(opt.scale(25 * units.Microsecond))
	f.ResetStats()
	net.Engine().RunFor(opt.scale(50 * units.Microsecond))
	return f.Achieved()
}

func remoteReadBW(opt Options) units.Bandwidth {
	sys := opt.newSystem()
	p := sys.Socket(0).Profile()
	umcs := p.UMCSet(topology.NPS1, 0)
	var meter telemetry.Meter
	n := 0
	// One continuation pair per chain (bound at start) instead of a fresh
	// closure per issued transaction.
	startChain := func(src topology.CoreID) {
		var issue func()
		record := func(t *txn.Transaction) {
			meter.Record(t.Size)
			n++
			issue()
		}
		issue = func() {
			sys.IssueRemote(0, src, txn.Read, umcs[n%len(umcs)], record)
		}
		issue()
	}
	for _, src := range allCores(p) {
		for k := 0; k < p.CoreReadMSHRs; k++ {
			startChain(src)
		}
	}
	sys.Engine().RunFor(opt.scale(20 * units.Microsecond))
	meter.Reset(sys.Engine().Now())
	sys.Engine().RunFor(opt.scale(50 * units.Microsecond))
	return meter.Rate(sys.Engine().Now())
}

// RenderA3 renders the NUMA tier ablation.
func RenderA3(rows []A3Result) string {
	out := [][]string{{"Tier", "Latency (ns)", "Socket read (GB/s)", "Binding ceiling"}}
	for _, r := range rows {
		out = append(out, []string{r.Tier, ns(r.Latency), gb(r.ReadBW), r.Ceiling})
	}
	return "Ablation A3 — dual-socket (2x EPYC 7302): local vs remote memory tier\n" +
		renderTable(out)
}

// A4Result is one CXL flit-framing configuration's cost: §2.3 notes CXL
// FLITs come in 68 B and 256 B variants; for 64 B cacheline traffic the
// framing sets the payload efficiency of the P link.
type A4Result struct {
	FlitSize units.ByteSize
	Latency  units.Time
	CPURead  units.Bandwidth
}

// AblationCXLFlit re-runs the CXL latency and whole-CPU bandwidth
// measurements under 68 B and 256 B flit framing on the 9634. The CPU
// scale is P-link-bound, so framing efficiency shows directly: a 64 B
// cacheline occupies a full flit either way, and 256 B flits quarter the
// payload rate of random cacheline traffic.
func AblationCXLFlit(opt Options) ([]A4Result, error) {
	flits := []units.ByteSize{68, 256}
	return runCells(opt, len(flits), func(i int) (A4Result, error) {
		p := topology.EPYC9634()
		p.CXLFlitSize = flits[i]

		net := opt.newNet(p)
		h, err := traffic.RunPointerChase(net, traffic.ChaseConfig{
			WorkingSet: units.GiB, CXL: true, Modules: allModules(p), Count: 1500,
		})
		if err != nil {
			return A4Result{}, err
		}

		net = opt.newNet(p)
		f := traffic.MustFlow(net, traffic.FlowConfig{
			Name: "flit", Cores: allCores(p), Op: txn.Read,
			Kind: icore.DestCXL, Modules: allModules(p),
		})
		f.Start()
		net.Engine().RunFor(opt.scale(25 * units.Microsecond))
		f.ResetStats()
		net.Engine().RunFor(opt.scale(50 * units.Microsecond))

		return A4Result{FlitSize: flits[i], Latency: h.Mean(), CPURead: f.Achieved()}, nil
	})
}

// RenderA4 renders the flit-framing ablation.
func RenderA4(rows []A4Result) string {
	out := [][]string{{"Flit", "Latency (ns)", "CPU CXL read (GB/s)"}}
	for _, r := range rows {
		out = append(out, []string{r.FlitSize.String(), ns(r.Latency), gb(r.CPURead)})
	}
	return "Ablation A4 — CXL flit framing (EPYC 9634): 68B vs 256B flits for cacheline traffic\n" +
		renderTable(out)
}
