// Package profile implements the paper's research direction #5: a
// perf-like profiling utility for the chiplet network that "collaboratively
// combines the hardware architectural PMU with time-series-based
// probabilistic and compact data structures (like Sketches) to distill
// application-specific execution telemetry".
//
// A Profiler observes completed transactions (attach it to traffic flows
// via FlowConfig.Observer, or call Observe directly). The workloads here
// carry at most a few dozen flows, so the profiler keeps exact per-flow
// byte and operation counts where the paper proposes sketches: smaller,
// cheaper per transaction and reproducible from the seed. A per-flow ring
// of recent intervals answers how fast a flow is moving now, and a
// bounded key budget picks which flows the report lists. Latency
// distributions are kept per operation class, the "PMU" side of the
// design.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/txn"
	"repro/internal/units"
)

// FlowStat is one reported flow with its totals.
type FlowStat struct {
	Flow  string
	Bytes units.ByteSize
	Ops   uint64
}

// RecentRate's sliding window: recentBuckets intervals of recentInterval,
// 80 us of history.
const (
	recentBuckets  = 8
	recentInterval = 10 * units.Microsecond
)

// flowCount is one flow's exact totals and its recent-interval ring.
type flowCount struct {
	bytes   units.ByteSize
	ops     uint64
	tracked bool // within the key budget: listed by Top and Report
	// recent[k%recentBuckets] holds the bytes of interval k, stamped
	// with k; a slot whose stamp has fallen out of the window is stale.
	recent [recentBuckets]struct {
		interval int64
		bytes    units.ByteSize
	}
}

// Profiler distills per-flow telemetry from a transaction stream.
type Profiler struct {
	flows map[txn.Flow]*flowCount

	// The first maxKeys flows seen are tracked for reporting. Flows past
	// the budget still count (in flows and in the totals); they are just
	// not listed individually.
	tracked  int
	maxKeys  int
	overflow uint64 // observations whose flow was not tracked

	// head is the newest interval any observation completed in: the end
	// of RecentRate's window. It never moves backwards.
	head int64

	latency   map[txn.Op]*telemetry.Histogram
	total     telemetry.Meter
	firstSeen units.Time
	lastSeen  units.Time
	seen      bool
}

// New builds a profiler tracking at most maxKeys distinct flows (64 when
// non-positive).
func New(maxKeys int) *Profiler {
	if maxKeys <= 0 {
		maxKeys = 64
	}
	return &Profiler{
		flows:   make(map[txn.Flow]*flowCount),
		maxKeys: maxKeys,
		latency: make(map[txn.Op]*telemetry.Histogram),
	}
}

// Observe folds one completed transaction into the profile.
func (p *Profiler) Observe(t *txn.Transaction) {
	fc := p.flows[t.Flow]
	if fc == nil {
		fc = &flowCount{tracked: p.tracked < p.maxKeys}
		if fc.tracked {
			p.tracked++
		}
		p.flows[t.Flow] = fc
	}
	if !fc.tracked {
		p.overflow++
	}
	fc.bytes += t.Size
	fc.ops++
	p.head = max(p.head, int64(t.Completed/recentInterval))
	slot := &fc.recent[p.head%recentBuckets]
	if slot.interval != p.head {
		slot.interval, slot.bytes = p.head, 0
	}
	slot.bytes += t.Size
	h := p.latency[t.Op]
	if h == nil {
		h = &telemetry.Histogram{}
		p.latency[t.Op] = h
	}
	h.Record(t.Latency())
	p.total.Record(t.Size)
	if !p.seen {
		p.firstSeen = t.Issued
		p.seen = true
	}
	if t.Completed > p.lastSeen {
		p.lastSeen = t.Completed
	}
}

// flow reports a flow's counts, zero for a flow never observed.
func (p *Profiler) flow(f txn.Flow) flowCount {
	if fc := p.flows[f]; fc != nil {
		return *fc
	}
	return flowCount{}
}

// FlowBytes reports the bytes moved by a flow.
func (p *Profiler) FlowBytes(f txn.Flow) units.ByteSize { return p.flow(f).bytes }

// FlowOps reports the operation count of a flow.
func (p *Profiler) FlowOps(f txn.Flow) uint64 { return p.flow(f).ops }

// RecentRate reports a flow's byte rate over the last 80 us: the eight
// 10 us intervals ending with the newest interval any observation
// completed in. A flow idle that long reads 0 while its totals stay.
func (p *Profiler) RecentRate(f txn.Flow) units.Bandwidth {
	return units.Rate(p.recentBytes(f), recentBuckets*recentInterval)
}

// recentBytes sums a flow's bytes over RecentRate's window.
func (p *Profiler) recentBytes(f txn.Flow) units.ByteSize {
	var sum units.ByteSize
	for _, s := range p.flow(f).recent {
		if s.interval > p.head-recentBuckets {
			sum += s.bytes
		}
	}
	return sum
}

// TotalBytes reports the exact total bytes observed.
func (p *Profiler) TotalBytes() units.ByteSize { return p.total.Bytes() }

// TotalOps reports the exact total operations observed.
func (p *Profiler) TotalOps() uint64 { return p.total.Ops() }

// Overflow reports how many observations belonged to flows beyond the
// tracked-key budget (still counted per flow and in the totals).
func (p *Profiler) Overflow() uint64 { return p.overflow }

// Latency reports the latency histogram of one operation class, nil when
// the class was never observed.
func (p *Profiler) Latency(op txn.Op) *telemetry.Histogram { return p.latency[op] }

// Top reports the n tracked flows with the largest byte counts,
// descending.
func (p *Profiler) Top(n int) []FlowStat {
	stats := make([]FlowStat, 0, p.tracked)
	for f, fc := range p.flows {
		if fc.tracked {
			stats = append(stats, FlowStat{Flow: f.String(), Bytes: fc.bytes, Ops: fc.ops})
		}
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Bytes != stats[j].Bytes {
			return stats[i].Bytes > stats[j].Bytes
		}
		return stats[i].Flow < stats[j].Flow
	})
	if n > 0 && len(stats) > n {
		stats = stats[:n]
	}
	return stats
}

// Report renders a perf-report-like summary: the top flows by bytes with
// their share of total traffic, then per-operation latency lines.
func (p *Profiler) Report(top int) string {
	var b strings.Builder
	span := p.lastSeen - p.firstSeen
	fmt.Fprintf(&b, "# chiplet-net profile: %d ops, %v over %v",
		p.TotalOps(), p.TotalBytes(), span)
	if span > 0 {
		fmt.Fprintf(&b, " (%v)", units.Rate(p.TotalBytes(), span))
	}
	b.WriteString("\n#\n# Overhead  Bytes        Ops         Flow\n")
	total := float64(p.TotalBytes())
	for _, s := range p.Top(top) {
		share := 0.0
		if total > 0 {
			share = float64(s.Bytes) / total * 100
		}
		fmt.Fprintf(&b, "  %6.2f%%  %-11v  %-10d  %s\n", share, s.Bytes, s.Ops, s.Flow)
	}
	if p.overflow > 0 {
		fmt.Fprintf(&b, "  [%d observations in untracked flows]\n", p.overflow)
	}
	b.WriteString("#\n# Latency by operation\n")
	ops := make([]txn.Op, 0, len(p.latency))
	for op := range p.latency {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		h := p.latency[op]
		fmt.Fprintf(&b, "  %-8v n=%-9d mean=%-10v p50=%-10v p99=%-10v p999=%v\n",
			op, h.Count(), h.Mean(), h.P50(), h.P99(), h.P999())
	}
	return b.String()
}
