// Human-readable views over the flight recorder: the per-hop counter
// registry, the latency-breakdown report, per-transaction reconciliation,
// and the offline equivalents for traces loaded back from JSON.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/units"
)

// CounterReport renders the counter registry: one row per hop that saw
// traffic, with message/byte meters and per-cause busy time.
func (t *Tracer) CounterReport() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "hop\tkind\tmsgs\tbytes\t")
	for c := 0; c < NumCauses; c++ {
		fmt.Fprintf(tw, "%s\t", Cause(c))
	}
	fmt.Fprintln(tw)
	idle := 0
	for i := range t.counters {
		c := &t.counters[i]
		if c.Spans == 0 && c.Meter.Ops() == 0 {
			idle++
			continue
		}
		h := t.hops[i]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t", h.Name, h.Kind, c.Meter.Ops(), c.Meter.Bytes())
		for cause := 0; cause < NumCauses; cause++ {
			if d := c.ByCause[cause]; d > 0 {
				fmt.Fprintf(tw, "%s\t", d)
			} else {
				fmt.Fprint(tw, "-\t")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if idle > 0 {
		fmt.Fprintf(&b, "(%d idle hops omitted)\n", idle)
	}
	return b.String()
}

// causeShare is one line of a percentage breakdown.
type causeShare struct {
	label string
	d     units.Time
}

func renderShares(b *strings.Builder, shares []causeShare, total units.Time, max int) {
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].d > shares[j].d })
	for i, s := range shares {
		if i >= max || s.d <= 0 {
			break
		}
		fmt.Fprintf(b, "  %5.1f%%  %-28s %s\n", pct(s.d, total), s.label, s.d)
	}
}

func pct(part, total units.Time) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// BreakdownReport renders the latency-breakdown report: how the total
// end-to-end latency of the traced transactions divides across causes,
// the busiest hop×cause cells, and the slowest individual transactions
// with their own attribution ("txn 812: 38% serializing ccd2/gmi/out").
// top bounds both the hop×cause and slowest-transaction lists; a
// negative top counts as 0.
func (t *Tracer) BreakdownReport(top int) string {
	top = max(top, 0)
	var b strings.Builder
	fmt.Fprintf(&b, "latency breakdown — %d transactions, %d spans", t.txnSeen, t.spans.n)
	if t.spanDropped > 0 {
		fmt.Fprintf(&b, " (+%d overwritten)", t.spanDropped)
	}
	b.WriteString("\n")
	var attributed units.Time
	for _, d := range t.attr {
		attributed += d
	}
	fmt.Fprintf(&b, "total transaction latency %s, attributed to named causes: %.2f%%\n",
		t.latTotal, pct(attributed, t.latTotal))
	b.WriteString("by cause:\n")
	shares := make([]causeShare, 0, NumCauses)
	for c := 0; c < NumCauses; c++ {
		shares = append(shares, causeShare{Cause(c).String(), t.attr[c]})
	}
	renderShares(&b, shares, t.latTotal, NumCauses)

	b.WriteString("by hop and cause:\n")
	cells := make([]causeShare, 0, len(t.hops))
	for i := range t.counters {
		for c := 0; c < NumCauses; c++ {
			if d := t.counters[i].ByCause[c]; d > 0 {
				label := fmt.Sprintf("%s %s", Cause(c), t.hops[i].Name)
				cells = append(cells, causeShare{label, d})
			}
		}
	}
	renderShares(&b, cells, t.latTotal, top)

	slow := t.slowestTxns(top)
	if len(slow) > 0 {
		b.WriteString("slowest transactions:\n")
		byTxn := t.spansByTxn(slow)
		for _, r := range slow {
			b.WriteString(renderTxnLine(r, byTxn[r.ID], t.hops))
		}
	}
	return b.String()
}

// slowestTxns picks the top-n transaction records by latency.
func (t *Tracer) slowestTxns(n int) []TxnRecord {
	recs := make([]TxnRecord, 0, t.txns.n)
	t.EachTxn(func(r TxnRecord) { recs = append(recs, r) })
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Latency() > recs[j].Latency() })
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}

// spansByTxn gathers the live spans of the given transactions in one
// pass over the ring.
func (t *Tracer) spansByTxn(recs []TxnRecord) map[uint64][]Span {
	want := make(map[uint64][]Span, len(recs))
	for _, r := range recs {
		want[r.ID] = nil
	}
	t.EachSpan(func(s Span) {
		if ss, ok := want[s.Txn]; ok {
			want[s.Txn] = append(ss, s)
		}
	})
	return want
}

// renderTxnLine renders one transaction's attribution summary.
func renderTxnLine(r TxnRecord, spans []Span, hops []Hop) string {
	type key struct {
		hop   HopID
		cause Cause
	}
	agg := map[key]units.Time{}
	for _, s := range spans {
		agg[key{s.Hop, s.Cause}] += s.Duration()
	}
	shares := make([]causeShare, 0, len(agg))
	var covered units.Time
	for k, d := range agg {
		name := fmt.Sprintf("hop%d", k.hop)
		if int(k.hop) < len(hops) {
			name = hops[k.hop].Name
		}
		shares = append(shares, causeShare{fmt.Sprintf("%s %s", k.cause, name), d})
		covered += d
	}
	sort.SliceStable(shares, func(i, j int) bool {
		if shares[i].d != shares[j].d {
			return shares[i].d > shares[j].d
		}
		return shares[i].label < shares[j].label
	})
	lat := r.Latency()
	var b strings.Builder
	fmt.Fprintf(&b, "  txn %d  %s:", r.ID, lat)
	for i, s := range shares {
		if i >= 4 {
			break
		}
		fmt.Fprintf(&b, " %.0f%% %s,", pct(s.d, lat), s.label)
	}
	if rest := lat - covered; rest != 0 {
		fmt.Fprintf(&b, " %.0f%% other", pct(rest, lat))
	}
	return strings.TrimSuffix(b.String(), ",") + "\n"
}

// TxnBreakdown is the reconciliation of one transaction: the time its
// live spans cover versus its end-to-end latency.
type TxnBreakdown struct {
	Txn        TxnRecord
	Attributed units.Time
	// Residual is latency minus attributed span time; zero when the
	// span tiling is exact and no spans were overwritten.
	Residual units.Time
}

// Reconcile sums the live spans of every live transaction record against
// its end-to-end latency. With an unwrapped ring the residuals are all
// zero — the acceptance test of the span tiling.
func (t *Tracer) Reconcile() []TxnBreakdown {
	sums := make(map[uint64]units.Time, t.txns.n)
	t.EachTxn(func(r TxnRecord) { sums[r.ID] = 0 })
	t.EachSpan(func(s Span) {
		if _, ok := sums[s.Txn]; ok && s.Txn != 0 {
			sums[s.Txn] += s.Duration()
		}
	})
	out := make([]TxnBreakdown, 0, t.txns.n)
	t.EachTxn(func(r TxnRecord) {
		a := sums[r.ID]
		out = append(out, TxnBreakdown{Txn: r, Attributed: a, Residual: r.Latency() - a})
	})
	return out
}

// Report renders the offline analysis of a loaded trace: extent, per-hop
// and per-cause totals, and the slowest transactions — the chiplettrace
// default view. top bounds the per-hop and slowest-transaction lists; a
// negative top counts as 0.
func (l *Loaded) Report(top int) string {
	top = max(top, 0)
	var b strings.Builder
	if len(l.Spans) == 0 {
		return "empty trace\n"
	}
	first, last := l.Spans[0].Start, l.Spans[0].End
	var total units.Time
	byCause := [NumCauses]units.Time{}
	byHop := map[HopID]units.Time{}
	txns := map[uint64]*TxnRecord{}
	for _, s := range l.Spans {
		if s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
		total += s.Duration()
		byCause[s.Cause] += s.Duration()
		byHop[s.Hop] += s.Duration()
		if s.Txn == 0 {
			continue
		}
		r, ok := txns[s.Txn]
		if !ok {
			r = &TxnRecord{ID: s.Txn, Issued: s.Start, Completed: s.End}
			txns[s.Txn] = r
		}
		if s.Start < r.Issued {
			r.Issued = s.Start
		}
		if s.End > r.Completed {
			r.Completed = s.End
		}
	}
	fmt.Fprintf(&b, "%d spans on %d tracks, %d transactions, window %s .. %s (%s)\n",
		len(l.Spans), len(l.Hops), len(txns), first, last, last-first)
	b.WriteString("span time by cause:\n")
	shares := make([]causeShare, 0, NumCauses)
	for c := 0; c < NumCauses; c++ {
		shares = append(shares, causeShare{Cause(c).String(), byCause[c]})
	}
	renderShares(&b, shares, total, NumCauses)
	b.WriteString("span time by hop:\n")
	cells := make([]causeShare, 0, len(byHop))
	for id, d := range byHop {
		name := fmt.Sprintf("hop%d", id)
		if int(id) < len(l.Hops) && l.Hops[id].Name != "" {
			name = l.Hops[id].Name
		}
		cells = append(cells, causeShare{name, d})
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].label < cells[j].label })
	renderShares(&b, cells, total, top)

	recs := make([]TxnRecord, 0, len(txns))
	for _, r := range txns {
		recs = append(recs, *r)
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Latency() != recs[j].Latency() {
			return recs[i].Latency() > recs[j].Latency()
		}
		return recs[i].ID < recs[j].ID
	})
	if len(recs) > top {
		recs = recs[:top]
	}
	if len(recs) > 0 {
		b.WriteString("slowest transactions (span extent):\n")
		byTxn := map[uint64][]Span{}
		for _, r := range recs {
			byTxn[r.ID] = nil
		}
		for _, s := range l.Spans {
			if _, ok := byTxn[s.Txn]; ok {
				byTxn[s.Txn] = append(byTxn[s.Txn], s)
			}
		}
		for _, r := range recs {
			b.WriteString(renderTxnLine(r, byTxn[r.ID], l.Hops))
		}
	}
	return b.String()
}

// TxnDetail renders the chronological span listing of one transaction in
// a loaded trace.
func (l *Loaded) TxnDetail(id uint64) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 1, 4, 2, ' ', tabwriter.AlignRight)
	var total units.Time
	n := 0
	fmt.Fprintln(tw, "start\tdur\tcause\thop\t")
	for _, s := range l.Spans {
		if s.Txn != id {
			continue
		}
		name := fmt.Sprintf("hop%d", s.Hop)
		if int(s.Hop) < len(l.Hops) && l.Hops[s.Hop].Name != "" {
			name = l.Hops[s.Hop].Name
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n", s.Start, s.Duration(), s.Cause, name)
		total += s.Duration()
		n++
	}
	tw.Flush()
	if n == 0 {
		return fmt.Sprintf("no spans for txn %d\n", id)
	}
	fmt.Fprintf(&b, "txn %d: %d spans, %s attributed\n", id, n, total)
	return b.String()
}
