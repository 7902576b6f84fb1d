// Package harness regenerates every table and figure in the paper's
// evaluation (§3): each experiment has a runner that builds a network from
// a calibrated profile, drives the workload the paper describes, and
// returns structured rows alongside the paper's reported values so the
// reproduction can be compared at a glance. EXPERIMENTS.md records one
// run's output.
package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/numa"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

// Options control experiment durations, determinism, and parallelism.
type Options struct {
	// Seed drives every random decision; equal seeds replay identically.
	Seed uint64
	// TimeScale divides the steady-state measurement windows. 1 is the
	// full experiment (cmd/reproduce's default; the root benchmark runs
	// 2); tests pass 4 for a quick pass with looser statistics.
	TimeScale int
	// Workers is the experiment-cell pool width: independent cells (each
	// with a private engine) run on this many goroutines. 0 means
	// GOMAXPROCS; 1 forces strictly serial execution. Results are
	// identical for every value — see runCells.
	Workers int
	// DisableRecycle turns off the transaction/walker free lists in every
	// network the harness builds. Results are byte-identical either way;
	// the determinism guard test flips this to prove pooling is invisible.
	DisableRecycle bool
}

// scale shortens a duration by the configured time scale, clamping at 5us
// so no window degenerates.
func (o Options) scale(d units.Time) units.Time {
	ts := o.TimeScale
	if ts <= 0 {
		ts = 1
	}
	s := d / units.Time(ts)
	if s < 5*units.Microsecond {
		s = 5 * units.Microsecond
	}
	return s
}

// newNet builds a fresh engine+network pair for a profile.
func (o Options) newNet(p *topology.Profile) *core.Network {
	return o.apply(core.New(sim.New(o.Seed), p))
}

// newSystem builds the dual-socket testbed on a fresh engine, applying the
// options to both sockets as newNet does to its one network.
func (o Options) newSystem() *numa.System {
	sys := numa.NewSystem(sim.New(o.Seed))
	o.apply(sys.Socket(0))
	o.apply(sys.Socket(1))
	return sys
}

// apply sets the options that act on a built network.
func (o Options) apply(n *core.Network) *core.Network {
	if o.DisableRecycle {
		n.SetRecycling(false)
	}
	return n
}

// ccdCores enumerates every core of one compute chiplet.
func ccdCores(p *topology.Profile, ccd int) []topology.CoreID {
	var out []topology.CoreID
	for ccx := 0; ccx < p.CCXPerCCD(); ccx++ {
		for c := 0; c < p.CoresPerCCX(); c++ {
			out = append(out, topology.CoreID{CCD: ccd, CCX: ccx, Core: c})
		}
	}
	return out
}

// firstCores enumerates the first n cores in CCD-major order.
func firstCores(p *topology.Profile, n int) []topology.CoreID {
	var out []topology.CoreID
	for ccd := 0; ccd < p.CCDs && len(out) < n; ccd++ {
		for _, c := range ccdCores(p, ccd) {
			out = append(out, c)
			if len(out) == n {
				return out
			}
		}
	}
	return out
}

// allCores enumerates every core on the CPU.
func allCores(p *topology.Profile) []topology.CoreID {
	return firstCores(p, p.Cores)
}

// allModules enumerates every CXL module index.
func allModules(p *topology.Profile) []int {
	mods := make([]int, p.CXLModules)
	for i := range mods {
		mods[i] = i
	}
	return mods
}

// renderTable renders rows (first row = header) as an aligned text table.
func renderTable(rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for i, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
		if i == 0 {
			sep := make([]string, len(row))
			for j, cell := range row {
				sep[j] = strings.Repeat("-", len(cell))
			}
			fmt.Fprintln(w, strings.Join(sep, "\t"))
		}
	}
	w.Flush()
	return b.String()
}

// gb formats a bandwidth as "12.3".
func gb(bw units.Bandwidth) string { return fmt.Sprintf("%.1f", bw.GBpsValue()) }

// ns formats a time as "123.4".
func ns(t units.Time) string { return fmt.Sprintf("%.1f", t.Nanoseconds()) }
