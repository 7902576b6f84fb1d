package harness

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Figure4TraceCell runs one Figure 4 (scenario, demand case) cell with
// the hop-level flight recorder attached and returns both the bandwidth
// result and the tracer holding the measurement window's spans. The
// tracer is enabled only for the steady-state window (after convergence
// and the stats reset), so the trace describes exactly the interval the
// achieved-bandwidth numbers summarize. spanCap bounds the span ring
// (<= 0 uses the trace package default).
//
// The cell runs serially on its own engine regardless of opt.Workers —
// a tracer is engine-local and cannot be shared across cells.
func Figure4TraceCell(opt Options, scenario, demandCase, spanCap int) (Fig4Result, *trace.Tracer, error) {
	scs := Figure4Scenarios()
	if scenario < 0 || scenario >= len(scs) {
		return Fig4Result{}, nil, fmt.Errorf("harness: scenario %d out of range [0,%d)", scenario, len(scs))
	}
	cases := Fig4Cases()
	if demandCase < 0 || demandCase >= len(cases) {
		return Fig4Result{}, nil, fmt.Errorf("harness: demand case %d out of range [0,%d)", demandCase, len(cases))
	}
	tr := trace.New(trace.Config{SpanCap: spanCap})
	res, err := figure4CellObserved(scs[scenario], cases[demandCase], opt, tr, nil)
	if err != nil {
		return Fig4Result{}, nil, err
	}
	return res, tr, nil
}

// Figure4FusedCell runs one Figure 4 cell with both observers attached —
// the flight recorder and a windowed-metrics registry on the same engine,
// both covering exactly the steady-state measurement window. Their time
// stamps share one clock, so a metrics window's [start, end) keys
// directly into the tracer (trace.SpansInWindow, anomaly.Fuse): an
// incident's onset window fuses to the spans of the transactions that
// crossed the congested resource while it tripped. Attach detectors to
// reg (anomaly.Attach) before calling.
func Figure4FusedCell(opt Options, scenario, demandCase, spanCap int, reg *metrics.Registry) (Fig4Result, *trace.Tracer, error) {
	scs := Figure4Scenarios()
	if scenario < 0 || scenario >= len(scs) {
		return Fig4Result{}, nil, fmt.Errorf("harness: scenario %d out of range [0,%d)", scenario, len(scs))
	}
	cases := Fig4Cases()
	if demandCase < 0 || demandCase >= len(cases) {
		return Fig4Result{}, nil, fmt.Errorf("harness: demand case %d out of range [0,%d)", demandCase, len(cases))
	}
	if reg == nil {
		return Fig4Result{}, nil, fmt.Errorf("harness: nil metrics registry")
	}
	tr := trace.New(trace.Config{SpanCap: spanCap})
	res, err := figure4CellObserved(scs[scenario], cases[demandCase], opt, tr, reg)
	if err != nil {
		return Fig4Result{}, nil, err
	}
	return res, tr, nil
}
