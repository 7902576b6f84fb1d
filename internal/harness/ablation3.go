package harness

import (
	"fmt"
	"math"

	"repro/internal/link"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// A5Point compares the flit-level router mesh against the aggregate
// capacity abstraction the main model uses for the I/O die, at one offered
// load.
type A5Point struct {
	Offered      units.Bandwidth
	RouterBW     units.Bandwidth
	RouterAvg    units.Time
	AggregateBW  units.Bandwidth
	AggregateAvg units.Time
}

// A5Result is the abstraction-validation sweep.
type A5Result struct {
	Saturation units.Bandwidth // router mesh's measured ceiling
	Unloaded   units.Time      // router mesh's unloaded mean latency
	Points     []A5Point
}

// AblationNoCModel drives uniform-random traffic through a 4x2 buffered
// router mesh (per-edge Infinity-Fabric-class links) and through the
// aggregate single-channel abstraction calibrated to the mesh's measured
// ceiling and unloaded latency — the modelling shortcut internal/mesh
// takes for the I/O die. If the abstraction is sound, the two produce the
// same achieved bandwidth and the same latency knee across the sweep.
func AblationNoCModel(opt Options) (*A5Result, error) {
	window := opt.scale(30 * units.Microsecond)

	// Step 1: the mesh's ceiling and unloaded latency.
	satBW, _ := driveRouter(units.GBps(500), window, opt.Seed)
	_, unloaded := driveRouter(units.GBps(5), window, opt.Seed)
	res := &A5Result{Saturation: satBW, Unloaded: unloaded}

	// Step 2: sweep both models over the same offered loads — one cell per
	// sweep point, each running its own pair of private engines.
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0}
	points, err := runCells(opt, len(fracs), func(i int) (A5Point, error) {
		offered := units.Bandwidth(float64(satBW) * fracs[i])
		rBW, rAvg := driveRouter(offered, window, opt.Seed)
		aBW, aAvg := driveAggregate(satBW, unloaded, offered, window, opt.Seed)
		return A5Point{
			Offered:  offered,
			RouterBW: rBW, RouterAvg: rAvg,
			AggregateBW: aBW, AggregateAvg: aAvg,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// driveRouter runs router.Drive on a fresh engine seeded with seed, its
// pair stream seeded with seed+1.
func driveRouter(offered units.Bandwidth, window units.Time, seed uint64) (units.Bandwidth, units.Time) {
	return router.Drive(sim.New(seed), sim.NewRNG(seed+1), offered, window)
}

// driveAggregate runs the same arrival process through the abstraction:
// one serialized channel at the mesh's measured capacity plus the
// unloaded latency as fixed propagation (how internal/mesh models the
// whole die).
func driveAggregate(capacity units.Bandwidth, base units.Time, offered units.Bandwidth, window units.Time, seed uint64) (units.Bandwidth, units.Time) {
	eng := sim.New(seed)
	// Propagation is base minus one serialization quantum so the unloaded
	// mean matches the mesh.
	prop := base - capacity.TimeToSend(units.CacheLine)
	if prop < 0 {
		prop = 0
	}
	ch := link.NewChannel(eng, "aggregate", capacity, prop, 0)
	rng := sim.NewRNG(seed + 1)
	gap := units.Interval(units.CacheLine, offered)
	var hist telemetry.Histogram
	var meter telemetry.Meter
	// The channel is unbounded with fixed propagation and serializes
	// FIFO, so messages arrive in send order: one pre-bound delivery pops
	// the oldest send stamp from a ring of the at most 512 in flight.
	var sent [512]units.Time
	head, inFlight := 0, 0
	deliver := func() {
		hist.Record(eng.Now() - sent[head])
		meter.Record(units.CacheLine)
		head = (head + 1) % len(sent)
		inFlight--
	}
	var inject func()
	inject = func() {
		if inFlight < len(sent) {
			sent[(head+inFlight)%len(sent)] = eng.Now()
			inFlight++
			ch.Send(units.CacheLine, deliver)
		}
		d := units.Time(math.Round(float64(gap) * rng.ExpFloat64()))
		if d < units.Picosecond {
			d = units.Picosecond
		}
		eng.After(d, inject)
	}
	eng.After(0, inject)
	eng.RunFor(window / 3)
	hist.Reset()
	meter.Reset(eng.Now())
	eng.RunFor(window)
	return meter.Rate(eng.Now()), hist.Mean()
}

// RenderA5 renders the abstraction-validation sweep.
func RenderA5(r *A5Result) string {
	rows := [][]string{{"Offered (GB/s)", "Router BW/avg", "Aggregate BW/avg"}}
	for _, pt := range r.Points {
		rows = append(rows, []string{
			gb(pt.Offered),
			gb(pt.RouterBW) + " / " + ns(pt.RouterAvg) + "ns",
			gb(pt.AggregateBW) + " / " + ns(pt.AggregateAvg) + "ns",
		})
	}
	return fmt.Sprintf(
		"Ablation A5 — flit-level buffered router mesh vs aggregate NoC abstraction\n"+
			"(mesh ceiling %v, unloaded %v)\n%s",
		r.Saturation, r.Unloaded, renderTable(rows))
}
