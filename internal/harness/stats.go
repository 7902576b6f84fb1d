package harness

import (
	"fmt"

	"repro/internal/metrics"
)

// Figure4StatsCell runs one Figure 4 (scenario, demand case) cell with a
// windowed-metrics registry attached and harvesting over exactly the
// steady-state measurement window (after convergence and the stats
// reset), so every harvest window describes the same interval the
// achieved-bandwidth numbers summarize. The caller builds the registry
// (choosing the harvest window and ring capacity) and reads it — or its
// Dump — after the cell returns; an OnHarvest callback set before the
// call streams windows live as the simulation runs.
//
// The cell runs serially on its own engine regardless of opt.Workers —
// a registry's probes are engine-local and cannot be shared across
// cells. The bandwidth result is identical with or without the registry
// attached: the harvest tick only reads counters the simulation already
// maintains.
func Figure4StatsCell(opt Options, scenario, demandCase int, reg *metrics.Registry) (Fig4Result, error) {
	scs := Figure4Scenarios()
	if scenario < 0 || scenario >= len(scs) {
		return Fig4Result{}, fmt.Errorf("harness: scenario %d out of range [0,%d)", scenario, len(scs))
	}
	cases := Fig4Cases()
	if demandCase < 0 || demandCase >= len(cases) {
		return Fig4Result{}, fmt.Errorf("harness: demand case %d out of range [0,%d)", demandCase, len(cases))
	}
	if reg == nil {
		return Fig4Result{}, fmt.Errorf("harness: nil metrics registry")
	}
	return figure4CellObserved(scs[scenario], cases[demandCase], opt, nil, reg)
}

// Figure5StatsRun traces one Figure 5 scenario with a windowed-metrics
// registry harvesting over the six-virtual-second trace (warmup
// excluded). With the default 100 us window — the paper's 100 ms IF
// harvest interval under the 1:1000 substitution — the registry records
// sixty windows spanning the whole fluctuating-demand schedule, lining
// up with the bandwidth series in the returned result.
func Figure5StatsRun(opt Options, scenario int, reg *metrics.Registry) (*Fig5Result, error) {
	scs := Figure5Scenarios()
	if scenario < 0 || scenario >= len(scs) {
		return nil, fmt.Errorf("harness: scenario %d out of range [0,%d)", scenario, len(scs))
	}
	if reg == nil {
		return nil, fmt.Errorf("harness: nil metrics registry")
	}
	return figure5Run(scs[scenario], opt, reg)
}
