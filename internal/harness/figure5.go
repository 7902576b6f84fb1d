package harness

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Fig5Result is one panel of the paper's Figure 5: the bandwidth traces of
// two competing flows while flow 0's demand fluctuates.
//
// Time scale: the paper's trace spans 6 wall-clock seconds with throttling
// during [2,3) and [4,5) s, and harvest delays of ~100 ms (IF) and ~500 ms
// (P link). The simulation runs the same schedule at 1:1000 — simulated
// milliseconds stand for the paper's seconds — with the adaptation epochs
// scaled identically, so every ramp shape and delay ratio is preserved
// (see DESIGN.md, substitution table).
type Fig5Result struct {
	Profile, Link string
	Interval      units.Time
	Flow0, Flow1  []telemetry.Point
	// Baseline is flow 1's pre-throttle bandwidth; HarvestDelay is how
	// long after the throttle began flow 1 sustainably recovered 80% of
	// the freed bandwidth.
	Baseline     units.Bandwidth
	HarvestDelay units.Time
}

// fig5VirtualSecond is the simulated time standing for one paper second.
const fig5VirtualSecond = units.Millisecond

// Fig5Scenario is one shared-link setting for the fluctuating-demand
// trace, reusing the Figure 4 scenario definitions.
type Fig5Scenario struct {
	Fig4     Fig4Scenario
	Demand   float64 // per-flow demand as a fraction of capacity
	Throttle units.Bandwidth
}

// Figure5Scenarios lists the paper's three panels: IF and P link on the
// 9634 (clean harvesting with different delays), and IF on the 7302
// (drastic variation from the oscillatory intra-CC regulator).
func Figure5Scenarios() []Fig5Scenario {
	all := Figure4Scenarios()
	pick := func(prof, link string) Fig4Scenario {
		for _, sc := range all {
			if sc.Link == link && sc.Profile().Name == prof {
				return sc
			}
		}
		panic("harness: no such figure-4 scenario " + prof + "/" + link)
	}
	return []Fig5Scenario{
		{Fig4: pick("EPYC 9634", "IF"), Demand: 0.65, Throttle: units.GBps(2)},
		{Fig4: pick("EPYC 9634", "P Link"), Demand: 0.65, Throttle: units.GBps(2)},
		{Fig4: pick("EPYC 7302", "IF"), Demand: 0.65, Throttle: units.GBps(2)},
	}
}

// figure5Cell traces one scenario over six virtual seconds, throttling
// flow 0 during virtual seconds [2,3) and [4,5): its demand drops to
// (equal share - 2 GB/s), the paper's "reduce the traffic rate of flow 0
// by 2.0 GB/s". The controllers are warmed to their equal-share
// equilibrium before the trace starts. obs records the six-virtual-second
// trace (warmup excluded), so harvest windows line up with the Figure 5
// bandwidth series; CellPerf is the cell's execution-cost readout.
func figure5Cell(sc Fig5Scenario, opt Options, obs Observers) (*Fig5Result, CellPerf, error) {
	p := sc.Fig4.Profile()
	net := opt.newNet(p)
	eng := net.Engine()
	obs.attach(net)
	demand := units.Bandwidth(float64(sc.Fig4.Capacity) * sc.Demand)
	throttled := sc.Fig4.Capacity/2 - sc.Throttle

	cfg0, cfg1 := sc.Fig4.FlowA(p), sc.Fig4.FlowB(p)
	cfg0.Demand, cfg1.Demand = demand, demand
	f0, err := traffic.NewFlow(net, cfg0)
	if err != nil {
		return nil, CellPerf{}, err
	}
	f1, err := traffic.NewFlow(net, cfg1)
	if err != nil {
		return nil, CellPerf{}, err
	}
	f0.Start()
	f1.Start()
	eng.RunFor(sc.Fig4.Converge) // reach the equal-share equilibrium

	t0 := eng.Now()
	interval := 25 * units.Microsecond
	s0 := telemetry.NewTimeSeries(interval)
	s1 := telemetry.NewTimeSeries(interval)
	obs.measure(eng, func() {
		f0.AttachSeries(s0)
		f1.AttachSeries(s1)
		// Demand schedule, in virtual seconds from t0.
		schedule := []struct {
			at units.Time
			bw units.Bandwidth
		}{
			{2 * fig5VirtualSecond, throttled},
			{3 * fig5VirtualSecond, demand},
			{4 * fig5VirtualSecond, throttled},
			{5 * fig5VirtualSecond, demand},
		}
		for _, s := range schedule {
			s := s
			eng.At(t0+s.at, func() { f0.SetDemand(s.bw) })
		}
		eng.RunUntil(t0 + 6*fig5VirtualSecond)
	})

	res := &Fig5Result{
		Profile: p.Name, Link: sc.Fig4.Link, Interval: interval,
		Flow0: shiftPoints(s0.Points(), t0),
		Flow1: shiftPoints(s1.Points(), t0),
	}
	// Baseline: flow 1 during [1.5, 2.0) virtual seconds.
	res.Baseline = meanRate(s1, t0+1500*units.Microsecond, t0+2000*units.Microsecond)
	// Harvest delay: first sustained (two consecutive buckets) recovery of
	// 80% of the freed bandwidth after the 2 s throttle begins.
	thresh := res.Baseline + units.Bandwidth(0.8*float64(sc.Throttle))
	for t := t0 + 2*fig5VirtualSecond; t < t0+3*fig5VirtualSecond-interval; t += interval {
		if s1.RateAt(t) >= thresh && s1.RateAt(t+interval) >= thresh {
			res.HarvestDelay = t - (t0 + 2*fig5VirtualSecond)
			break
		}
	}
	return res, CellPerf{Events: net.EventsExecuted(), Fused: net.EventsFused()}, nil
}

// shiftPoints rebases recorded points to the trace origin, dropping the
// warmup interval.
func shiftPoints(pts []telemetry.Point, t0 units.Time) []telemetry.Point {
	var out []telemetry.Point
	for _, p := range pts {
		if p.Time >= t0 {
			out = append(out, telemetry.Point{Time: p.Time - t0, Rate: p.Rate})
		}
	}
	return out
}

// Figure5 traces every scenario, one pool cell per panel.
func Figure5(opt Options) ([]*Fig5Result, error) {
	scs := Figure5Scenarios()
	return runCells(opt, len(scs), func(i int) (*Fig5Result, error) {
		res, _, err := figure5Cell(scs[i], opt, Observers{})
		return res, err
	})
}

func meanRate(ts *telemetry.TimeSeries, from, to units.Time) units.Bandwidth {
	var sum float64
	n := 0
	for t := from; t < to; t += ts.Interval() {
		sum += float64(ts.RateAt(t))
		n++
	}
	if n == 0 {
		return 0
	}
	return units.Bandwidth(sum / float64(n))
}

// RenderFigure5 renders each panel as a coarse text trace (one line per
// 250 us of simulated time = quarter virtual second).
func RenderFigure5(results []*Fig5Result) string {
	out := ""
	for _, r := range results {
		rows := [][]string{{"t (virt s)", "flow0 (GB/s)", "flow1 (GB/s)"}}
		step := 250 * units.Microsecond
		for t := units.Time(0); t < 6*fig5VirtualSecond; t += step {
			f0 := meanRate(seriesOf(r.Flow0, r.Interval), t, t+step)
			f1 := meanRate(seriesOf(r.Flow1, r.Interval), t, t+step)
			rows = append(rows, []string{
				fmt.Sprintf("%.2f", float64(t)/float64(fig5VirtualSecond)),
				gb(f0), gb(f1),
			})
		}
		out += fmt.Sprintf("Figure 5 — %s on %s (harvest delay %v, i.e. %.0f paper-ms)\n%s\n",
			r.Link, r.Profile, r.HarvestDelay,
			float64(r.HarvestDelay)/float64(fig5VirtualSecond)*1000,
			renderTable(rows))
	}
	return out
}

// seriesOf rebuilds a TimeSeries view over recorded points (rendering
// helper only).
func seriesOf(pts []telemetry.Point, interval units.Time) *telemetry.TimeSeries {
	ts := telemetry.NewTimeSeries(interval)
	for _, p := range pts {
		// Points carry rates; convert back to bytes for the bucket.
		bytes := units.ByteSize(float64(p.Rate) * interval.Seconds())
		ts.Record(p.Time, bytes)
	}
	return ts
}
