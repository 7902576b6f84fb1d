// Bottleneck attribution and the top-like views cmd/chipletstat and
// `reproduce -stats` render. The attributor folds each window's
// congestion signals — queue-wait time on channels, grant-wait time on
// token pools, refusal counts from bounded queues — into a ranked
// "where is the congestion point" report, per window: the windowed
// counterpart of the flight recorder's whole-run cause breakdown.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/units"
)

// Bottleneck is one resource's congestion standing within one window.
type Bottleneck struct {
	Resource string
	Family   string
	// Wait is the congestion time the resource accumulated in the window:
	// serializer queue waits for channels, token grant waits for pools.
	// Note the sum is over concurrent waiters, so it can exceed the
	// window length — it is waiter-time, not wall time.
	Wait units.Time
	// Share is Wait as a fraction of the window's total wait time across
	// all resources.
	Share float64
	// Refused counts sends a bounded queue turned away in the window.
	Refused float64
	// Util is the resource's serializer utilization over the window
	// (channels only; zero for pools).
	Util float64
	// Depth is the end-of-window queue depth: messages queued in a
	// channel, waiters blocked on a pool.
	Depth float64
}

// Bottlenecks ranks every tracked resource in window w by accumulated
// congestion time (then refusals, then name, for a deterministic order),
// returning the top k (none when k <= 0, as every -top flag reads it).
// Resources with no congestion signal in the window are omitted.
func Bottlenecks(s Source, w, k int) []Bottleneck {
	span := s.WindowEnd(w) - s.WindowStart(w)
	byResource := map[string]*Bottleneck{}
	var order []string
	get := func(d Desc) *Bottleneck {
		b := byResource[d.Resource]
		if b == nil {
			b = &Bottleneck{Resource: d.Resource, Family: d.Family}
			byResource[d.Resource] = b
			order = append(order, d.Resource)
		}
		return b
	}
	var totalWait units.Time
	for i := 0; i < s.NumInstruments(); i++ {
		d := s.Desc(i)
		v := s.Value(ID(i), w)
		switch d.Metric {
		case MetricWait:
			get(d).Wait = units.Time(v)
			totalWait += units.Time(v)
		case MetricRefused:
			get(d).Refused = v
		case MetricBusy:
			if span > 0 {
				get(d).Util = v / float64(span)
			}
		case MetricDepth:
			get(d).Depth = v
		}
	}
	ranked := make([]Bottleneck, 0, len(order))
	for _, name := range order {
		b := byResource[name]
		if b.Wait == 0 && b.Refused == 0 {
			continue
		}
		if totalWait > 0 {
			b.Share = float64(b.Wait) / float64(totalWait)
		}
		ranked = append(ranked, *b)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Wait != ranked[j].Wait {
			return ranked[i].Wait > ranked[j].Wait
		}
		if ranked[i].Refused != ranked[j].Refused {
			return ranked[i].Refused > ranked[j].Refused
		}
		return ranked[i].Resource < ranked[j].Resource
	})
	return ranked[:max(0, min(k, len(ranked)))]
}

// familyTotal sums one metric's window-w values over a family ("" = all).
func familyTotal(s Source, w int, family, metric string) float64 {
	var total float64
	for i := 0; i < s.NumInstruments(); i++ {
		d := s.Desc(i)
		if d.Metric == metric && (family == "" || d.Family == family) {
			total += s.Value(ID(i), w)
		}
	}
	return total
}

// RenderWindow renders one harvest window as a top-like table: the
// header line carries the window bounds and whole-network totals, the
// body the k most congested resources with their utilization, depth and
// backpressure columns (no rows when k <= 0). This is the live view
// `reproduce -stats` prints per window and `chipletstat` pages through.
func RenderWindow(s Source, w, k int) string {
	span := s.WindowEnd(w) - s.WindowStart(w)
	bytes := familyTotal(s, w, "", MetricBytes)
	var b strings.Builder
	fmt.Fprintf(&b, "window %d  [%v, %v)  traffic %v (%v)  congestion-wait %v\n",
		w, s.WindowStart(w), s.WindowEnd(w),
		units.ByteSize(bytes), units.Rate(units.ByteSize(bytes), span),
		units.Time(familyTotal(s, w, "", MetricWait)))
	ranked := Bottlenecks(s, w, k)
	if len(ranked) == 0 && k > 0 {
		b.WriteString("  (no congestion recorded)\n")
		return b.String()
	}
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  #\tresource\tfamily\twait\tshare\tutil\tdepth\trefused")
	for i, r := range ranked {
		fmt.Fprintf(tw, "  %d\t%s\t%s\t%v\t%.1f%%\t%.0f%%\t%.0f\t%.0f\n",
			i+1, r.Resource, r.Family, r.Wait, r.Share*100, r.Util*100, r.Depth, r.Refused)
	}
	tw.Flush()
	return b.String()
}

// BottleneckReport renders the per-window attribution for every retained
// window: one row per window naming the top k congestion points (no rows
// when k <= 0). The first named resource is the windowed answer to "which
// link or queue is the bottleneck right now".
func BottleneckReport(s Source, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck attribution (%d windows of %v)\n", s.Total()-s.FirstWindow(), s.Window())
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  win\tstart\tcongestion points (wait, share)")
	for w := s.FirstWindow(); k > 0 && w < s.Total(); w++ {
		ranked := Bottlenecks(s, w, k)
		cells := make([]string, 0, len(ranked))
		for _, r := range ranked {
			cells = append(cells, fmt.Sprintf("%s (%v, %.0f%%)", r.Resource, r.Wait, r.Share*100))
		}
		if len(cells) == 0 {
			cells = append(cells, "-")
		}
		fmt.Fprintf(tw, "  %d\t%v\t%s\n", w, s.WindowStart(w), strings.Join(cells, "  "))
	}
	tw.Flush()
	return b.String()
}

// FamilySummary renders per-family traffic and congestion totals over
// all retained windows — the quick proof that every subsystem family is
// reporting.
func FamilySummary(s Source) string {
	type agg struct {
		bytes, wait float64
		instruments int
	}
	byFamily := map[string]*agg{}
	var order []string
	for i := 0; i < s.NumInstruments(); i++ {
		d := s.Desc(i)
		a := byFamily[d.Family]
		if a == nil {
			a = &agg{}
			byFamily[d.Family] = a
			order = append(order, d.Family)
		}
		a.instruments++
		for w := s.FirstWindow(); w < s.Total(); w++ {
			switch d.Metric {
			case MetricBytes:
				a.bytes += s.Value(ID(i), w)
			case MetricWait:
				a.wait += s.Value(ID(i), w)
			}
		}
	}
	sort.Strings(order)
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "family\tinstruments\tbytes\tcongestion-wait")
	for _, f := range order {
		a := byFamily[f]
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\n", f, a.instruments, units.ByteSize(a.bytes), units.Time(a.wait))
	}
	tw.Flush()
	return b.String()
}
