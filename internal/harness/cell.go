package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cell names one observable experiment cell: a Figure 4 (scenario,
// demand case) pair or a Figure 5 panel. Its text form, parsed by
// ParseCell, is "fig4:SCENARIO:CASE" or "fig5:SCENARIO".
type Cell struct {
	Fig      int // 4 or 5
	Scenario int // index into Figure4Scenarios or Figure5Scenarios
	Case     int // index into Fig4Cases; always 0 for Figure 5
}

func (c Cell) String() string {
	if c.Fig == 5 {
		return fmt.Sprintf("fig5:%d", c.Scenario)
	}
	return fmt.Sprintf("fig%d:%d:%d", c.Fig, c.Scenario, c.Case)
}

// ParseCell parses a cell name such as "fig4:1:2" or "fig5:0" and checks
// its indices against the scenario and case lists.
func ParseCell(s string) (Cell, error) {
	parts := strings.Split(s, ":")
	var c Cell
	switch {
	case parts[0] == "fig4" && len(parts) == 3:
		c.Fig = 4
	case parts[0] == "fig5" && len(parts) == 2:
		c.Fig = 5
	default:
		return Cell{}, fmt.Errorf("harness: cell %q: want fig4:SCENARIO:CASE or fig5:SCENARIO", s)
	}
	idx := []*int{&c.Scenario, &c.Case}
	for i, p := range parts[1:] {
		n, err := strconv.Atoi(p)
		if err != nil {
			return Cell{}, fmt.Errorf("harness: cell %q: bad index %q", s, p)
		}
		*idx[i] = n
	}
	return c, c.check()
}

// check reports whether the cell names an existing scenario and case.
func (c Cell) check() error {
	inRange := func(what string, i, n int) error {
		if i < 0 || i >= n {
			return fmt.Errorf("harness: cell %v: %s %d out of range [0,%d)", c, what, i, n)
		}
		return nil
	}
	switch c.Fig {
	case 4:
		if err := inRange("scenario", c.Scenario, len(Figure4Scenarios())); err != nil {
			return err
		}
		return inRange("demand case", c.Case, len(Fig4Cases()))
	case 5:
		if err := inRange("scenario", c.Scenario, len(Figure5Scenarios())); err != nil {
			return err
		}
		return inRange("demand case", c.Case, 1)
	}
	return fmt.Errorf("harness: cell %v: no such figure (want 4 or 5)", c)
}

// CellPerf is a cell's execution-cost readout: how many simulation
// events it ran and how many departure events channel stamp rings
// elided (warmup included).
type CellPerf struct {
	Events uint64 // calendar events dispatched
	Fused  uint64 // departure events elided by channel stamp rings
}

// CellResult is one cell's outcome: Fig4 for a Figure 4 cell, Fig5 (then
// non-nil) for a Figure 5 panel.
type CellResult struct {
	Fig4 Fig4Result
	Fig5 *Fig5Result
}

// Render renders the cell as its figure's text table.
func (r CellResult) Render() string {
	if r.Fig5 != nil {
		return RenderFigure5([]*Fig5Result{r.Fig5})
	}
	return RenderFigure4([]Fig4Result{r.Fig4})
}

// Observers are the recorders RunCell attaches to a cell's engine; either
// may be nil. Both cover exactly the measurement window (after
// convergence), so spans and harvest windows describe the interval the
// cell's bandwidth numbers summarize, and their stamps share one clock:
// a metrics window's [start, end) keys directly into the tracer
// (trace.SpansInWindow, anomaly.Fuse). Detectors ride on the registry —
// call anomaly.Attach on it before RunCell. Observers observe and never
// steer: the cell's result is identical with any combination attached.
type Observers struct {
	Tracer   *trace.Tracer
	Registry *metrics.Registry
}

// attach wires the observers into net; call it before any flow starts so
// every component registers its hops and probes.
func (o Observers) attach(net *core.Network) {
	if o.Tracer != nil {
		net.AttachTracer(o.Tracer)
	}
	if o.Registry != nil {
		net.AttachMetrics(o.Registry)
	}
}

// measure runs the measurement window with the observers recording:
// enabled and started just before window runs, stopped as it returns.
func (o Observers) measure(eng *sim.Engine, window func()) {
	if o.Tracer != nil {
		o.Tracer.Enable()
	}
	if o.Registry != nil {
		o.Registry.Start(eng)
	}
	window()
	if o.Registry != nil {
		o.Registry.Stop()
	}
	if o.Tracer != nil {
		o.Tracer.Disable()
	}
}

// RunCell runs one cell on a private engine with obs attached and
// returns its result and execution-cost readout. The cell runs serially
// regardless of opt.Workers: observers are engine-local and cannot be
// shared across cells.
func RunCell(opt Options, cell Cell, obs Observers) (CellResult, CellPerf, error) {
	if err := cell.check(); err != nil {
		return CellResult{}, CellPerf{}, err
	}
	if cell.Fig == 5 {
		res, perf, err := figure5Cell(Figure5Scenarios()[cell.Scenario], opt, obs)
		return CellResult{Fig5: res}, perf, err
	}
	res, perf, err := figure4Cell(Figure4Scenarios()[cell.Scenario], Fig4Cases()[cell.Case], opt, obs)
	return CellResult{Fig4: res}, perf, err
}

// Figure4CellThroughput runs one Figure 4 cell with no observers and
// reports its result plus the execution-cost readout. It stays only
// because the frozen benchmark module calls it; the next benchmark change
// moves that call to RunCell and deletes this wrapper.
func Figure4CellThroughput(sc Fig4Scenario, c Fig4Case, opt Options) (Fig4Result, CellPerf, error) {
	return figure4Cell(sc, c, opt, Observers{})
}

// Figure4FusedCell runs one Figure 4 cell with a fresh tracer (spanCap
// spans; <= 0 uses the default) and reg attached. It stays only because
// the frozen benchmark module calls it; the next benchmark change moves
// that call to RunCell and deletes this wrapper.
func Figure4FusedCell(opt Options, scenario, demandCase, spanCap int, reg *metrics.Registry) (Fig4Result, *trace.Tracer, error) {
	tr := trace.New(trace.Config{SpanCap: spanCap})
	res, _, err := RunCell(opt, Cell{Fig: 4, Scenario: scenario, Case: demandCase}, Observers{Tracer: tr, Registry: reg})
	return res.Fig4, tr, err
}
