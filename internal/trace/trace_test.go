package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestCauseAndKindNamesRoundTrip(t *testing.T) {
	for c := 0; c < NumCauses; c++ {
		got, ok := CauseFromString(Cause(c).String())
		if !ok || got != Cause(c) {
			t.Fatalf("cause %d: round trip gave %v, %v", c, got, ok)
		}
	}
	for _, k := range []Kind{KindChannel, KindPool, KindStage, KindDevice} {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("kind %v: round trip gave %v, %v", k, got, ok)
		}
	}
	if strings.HasPrefix(Cause(NumCauses).String(), "cause(") == false {
		t.Fatalf("out-of-range cause should render as cause(N)")
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	tr := New(Config{SpanCap: 8})
	hop := tr.RegisterHop("link", KindChannel)
	tr.SetActive(7)
	tr.Enqueue(hop, units.CacheLine, 0, 1, 2, 3)
	tr.Range(hop, CauseProcessing, 0, 10)
	tr.Wait(hop, 7, 0, 5)
	tr.EndTxn(7, 0, 10)
	if tr.SpanCount() != 0 || tr.TxnCount() != 0 || tr.Active() != 0 {
		t.Fatalf("disabled tracer recorded: spans=%d txns=%d active=%d",
			tr.SpanCount(), tr.TxnCount(), tr.Active())
	}
	if c := tr.Counters(hop); c.Spans != 0 || c.Meter.Ops() != 0 {
		t.Fatalf("disabled tracer counted: %+v", c)
	}
}

func TestEnqueueSpansAndCounters(t *testing.T) {
	tr := New(Config{SpanCap: 16})
	hop := tr.RegisterHop("gmi", KindChannel)
	tr.Enable()
	tr.SetActive(42)
	// accept 10, start 30 (queued 20), done 50 (serializing 20),
	// arrive 55 (propagating 5).
	tr.Enqueue(hop, units.CacheLine, 10, 30, 50, 55)
	var got []Span
	tr.EachSpan(func(s Span) { got = append(got, s) })
	want := []Span{
		{Txn: 42, Start: 10, End: 30, Hop: hop, Cause: CauseQueued},
		{Txn: 42, Start: 30, End: 50, Hop: hop, Cause: CauseSerializing},
		{Txn: 42, Start: 50, End: 55, Hop: hop, Cause: CausePropagating},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	c := tr.Counters(hop)
	if c.Meter.Ops() != 1 || c.Meter.Bytes() != units.CacheLine {
		t.Fatalf("meter = %v/%d", c.Meter.Bytes(), c.Meter.Ops())
	}
	if c.ByCause[CauseQueued] != 20 || c.ByCause[CauseSerializing] != 20 || c.ByCause[CausePropagating] != 5 {
		t.Fatalf("cause totals = %v", c.ByCause)
	}
	if c.Busy() != 45 {
		t.Fatalf("busy = %v, want 45", c.Busy())
	}
	// A zero-width leg (instant start, zero latency) must record no span.
	before := tr.SpanCount()
	tr.Enqueue(hop, units.CacheLine, 100, 100, 120, 120)
	if tr.SpanCount() != before+1 {
		t.Fatalf("zero-width legs recorded: %d spans added", tr.SpanCount()-before)
	}
}

func TestSpanRingWrapKeepsCountersExact(t *testing.T) {
	tr := New(Config{SpanCap: 4})
	hop := tr.RegisterHop("h", KindStage)
	tr.Enable()
	tr.SetActive(1)
	for i := 0; i < 6; i++ {
		from := units.Time(i * 10)
		tr.Range(hop, CauseProcessing, from, from+10)
	}
	if tr.SpanCount() != 4 || tr.Dropped() != 2 {
		t.Fatalf("ring: live=%d dropped=%d, want 4/2", tr.SpanCount(), tr.Dropped())
	}
	var starts []units.Time
	tr.EachSpan(func(s Span) { starts = append(starts, s.Start) })
	for i, want := range []units.Time{20, 30, 40, 50} {
		if starts[i] != want {
			t.Fatalf("oldest-first order broken: starts=%v", starts)
		}
	}
	// Counters and attribution must still see all six spans.
	if c := tr.Counters(hop); c.Spans != 6 || c.ByCause[CauseProcessing] != 60 {
		t.Fatalf("counters after wrap: %+v", c)
	}
	if tr.AttributedTime()[CauseProcessing] != 60 {
		t.Fatalf("attribution after wrap: %v", tr.AttributedTime())
	}
}

func TestWaitRestoresActive(t *testing.T) {
	tr := New(Config{SpanCap: 8})
	hop := tr.RegisterHop("pool", KindPool)
	tr.Enable()
	tr.SetActive(9) // some other transaction's release chain
	tr.Wait(hop, 4, 100, 130)
	if tr.Active() != 4 {
		t.Fatalf("Wait did not restore active: %d", tr.Active())
	}
	var got Span
	tr.EachSpan(func(s Span) { got = s })
	want := Span{Txn: 4, Start: 100, End: 130, Hop: hop, Cause: CauseWindowStalled}
	if got != want {
		t.Fatalf("stall span = %+v, want %+v", got, want)
	}
}

func TestReconcileAndBreakdown(t *testing.T) {
	tr := New(Config{SpanCap: 32})
	a := tr.RegisterHop("a", KindChannel)
	b := tr.RegisterHop("b", KindDevice)
	tr.Enable()
	// txn 1: [0,100] split 60/40 across two hops; txn 2: [50,80].
	tr.SetActive(1)
	tr.Range(a, CauseQueued, 0, 60)
	tr.Range(b, CauseService, 60, 100)
	tr.EndTxn(1, 0, 100)
	tr.SetActive(2)
	tr.Range(a, CauseSerializing, 50, 80)
	tr.EndTxn(2, 50, 80)
	recs := tr.Reconcile()
	if len(recs) != 2 {
		t.Fatalf("reconcile returned %d records", len(recs))
	}
	for _, r := range recs {
		if r.Residual != 0 {
			t.Fatalf("txn %d residual %v, want 0", r.Txn.ID, r.Residual)
		}
	}
	if tr.TotalLatency() != 130 {
		t.Fatalf("total latency %v, want 130", tr.TotalLatency())
	}
	rep := tr.BreakdownReport(5)
	if !strings.Contains(rep, "100.00%") {
		t.Fatalf("breakdown does not report full attribution:\n%s", rep)
	}
	if !strings.Contains(rep, "service") || !strings.Contains(rep, "txn 1") {
		t.Fatalf("breakdown missing expected content:\n%s", rep)
	}
	if cr := tr.CounterReport(); !strings.Contains(cr, "a") || !strings.Contains(cr, "device") {
		t.Fatalf("counter report missing hop rows:\n%s", cr)
	}
}

func TestExportRoundTrip(t *testing.T) {
	tr := New(Config{SpanCap: 32})
	ch := tr.RegisterHop("ccd0/gmi/out", KindChannel)
	dev := tr.RegisterHop("umc0/dram", KindDevice)
	tr.Enable()
	tr.SetActive(3)
	tr.Enqueue(ch, units.CacheLine, 1000, 1500, 2500, 11500)
	tr.Range(dev, CauseService, 11500, 53211) // odd picosecond values
	tr.EndTxn(3, 1000, 53211)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	// The output must be plain valid JSON.
	var generic map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if _, ok := generic["traceEvents"].([]any); !ok {
		t.Fatalf("export lacks traceEvents array")
	}

	ld, err := ReadTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.Hops) != 2 || ld.Hops[0].Name != "ccd0/gmi/out" || ld.Hops[1].Kind != KindDevice {
		t.Fatalf("hops did not round trip: %+v", ld.Hops)
	}
	var orig []Span
	tr.EachSpan(func(s Span) { orig = append(orig, s) })
	if len(ld.Spans) != len(orig) {
		t.Fatalf("got %d spans, want %d", len(ld.Spans), len(orig))
	}
	for i, s := range ld.Spans {
		if s != orig[i] {
			t.Fatalf("span %d did not round trip exactly: %+v vs %+v", i, s, orig[i])
		}
	}
	if rep := ld.Report(5); !strings.Contains(rep, "umc0/dram") {
		t.Fatalf("loaded report missing hop name:\n%s", rep)
	}
	if det := ld.TxnDetail(3); !strings.Contains(det, "service") {
		t.Fatalf("txn detail missing span:\n%s", det)
	}
	if det := ld.TxnDetail(999); !strings.Contains(det, "no spans") {
		t.Fatalf("missing-txn detail wrong:\n%s", det)
	}
}

// TestSpansInWindow: the window-indexed filter must return exactly the
// spans overlapping a half-open [start, end) window — boundary-touching
// spans belong to the window they occupy, not the one they end at.
func TestSpansInWindow(t *testing.T) {
	tr := New(Config{SpanCap: 16})
	hop := tr.RegisterHop("umc0/rd", KindChannel)
	tr.Enable()
	tr.SetActive(1)
	tr.Range(hop, CauseQueued, 0, 10)      // ends at window start: excluded
	tr.Range(hop, CauseSerializing, 5, 15) // straddles the start: included
	tr.Range(hop, CauseQueued, 12, 18)     // inside: included
	tr.Range(hop, CauseProcessing, 18, 30) // straddles the end: included
	tr.Range(hop, CauseService, 20, 25)    // starts at window end: excluded
	tr.Range(hop, CauseQueued, 2, 40)      // covers the whole window: included
	tr.EndTxn(1, 0, 40)
	tr.SetActive(2)
	tr.Range(hop, CauseQueued, 30, 35) // after the window: excluded
	tr.EndTxn(2, 30, 35)

	var got []Span
	n := tr.SpansInWindow(10, 20, func(s Span) { got = append(got, s) })
	if n != 4 || len(got) != 4 {
		t.Fatalf("SpansInWindow visited %d spans (%d collected), want 4", n, len(got))
	}
	for _, s := range got {
		if s.End <= 10 || s.Start >= 20 {
			t.Errorf("span [%v,%v) does not overlap window [10,20)", s.Start, s.End)
		}
	}
	// Verdict check against the brute-force sweep over every live span.
	want := 0
	tr.EachSpan(func(s Span) {
		if s.End > 10 && s.Start < 20 {
			want++
		}
	})
	if n != want {
		t.Fatalf("SpansInWindow = %d spans, brute-force overlap = %d", n, want)
	}

}

// TestLoadedSpansInWindow: the offline filter must agree with the live
// one after a JSON round trip.
func TestLoadedSpansInWindow(t *testing.T) {
	tr := New(Config{SpanCap: 16})
	hop := tr.RegisterHop("umc0/rd", KindChannel)
	tr.Enable()
	tr.SetActive(9)
	tr.Range(hop, CauseQueued, 0, 10)
	tr.Range(hop, CauseSerializing, 8, 25)
	tr.Range(hop, CauseService, 25, 30)
	tr.EndTxn(9, 0, 30)

	var buf bytes.Buffer
	if err := tr.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	ld, err := ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := ld.SpansInWindow(10, 26)
	var want []Span
	tr.SpansInWindow(10, 26, func(s Span) { want = append(want, s) })
	if len(got) != len(want) {
		t.Fatalf("loaded filter found %d spans, live filter %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("span %d: loaded %+v vs live %+v", i, got[i], want[i])
		}
	}
	win := ld.Window(10, 26)
	if len(win.Spans) != len(got) || len(win.Hops) != len(ld.Hops) {
		t.Fatalf("Window view: %d spans %d hops, want %d spans %d hops",
			len(win.Spans), len(win.Hops), len(got), len(ld.Hops))
	}
}

// TestAnnotatedExportRoundTrip: a trace written with an incident
// annotation track must read back with the annotations intact, the spans
// unchanged, and no phantom hop registered for the annotation track.
func TestAnnotatedExportRoundTrip(t *testing.T) {
	tr := New(Config{SpanCap: 16})
	hop := tr.RegisterHop("umc0/rd", KindChannel)
	tr.Enable()
	tr.SetActive(5)
	tr.Range(hop, CauseQueued, 1000, 9000)
	tr.Range(hop, CauseService, 9000, 12000)
	tr.EndTxn(5, 1000, 12000)

	anns := []Annotation{
		{Name: "umc0/rd", Start: 2000, End: 11000, Severity: 5.5, Baseline: 0.02, Detector: "ewma"},
		{Name: "gmi0", Start: 4000, End: 12000, Open: true, Severity: 1.25, Detector: "ewma+ph"},
	}
	var buf bytes.Buffer
	if err := tr.WriteTraceEventsAnnotated(&buf, anns); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	// One Chrome-trace file: plain valid JSON, the annotation track
	// metadata, onset markers for both, a clear marker only for the closed
	// annotation.
	var generic map[string]any
	if err := json.Unmarshal([]byte(raw), &generic); err != nil {
		t.Fatalf("fused export is not valid JSON: %v", err)
	}
	for _, want := range []string{`"kind":"incidents"`, `"onset umc0/rd"`, `"clear umc0/rd"`, `"onset gmi0"`} {
		if !strings.Contains(raw, want) {
			t.Errorf("fused export missing %s", want)
		}
	}
	if strings.Contains(raw, `"clear gmi0"`) {
		t.Error("open annotation wrote a clear marker")
	}

	ld, err := ReadTraceEvents(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.Hops) != 1 || ld.Hops[0].Name != "umc0/rd" {
		t.Fatalf("annotation track registered a phantom hop: %+v", ld.Hops)
	}
	var orig []Span
	tr.EachSpan(func(s Span) { orig = append(orig, s) })
	if len(ld.Spans) != len(orig) {
		t.Fatalf("got %d spans, want %d", len(ld.Spans), len(orig))
	}
	for i := range orig {
		if ld.Spans[i] != orig[i] {
			t.Fatalf("span %d changed under annotations: %+v vs %+v", i, ld.Spans[i], orig[i])
		}
	}
	if len(ld.Annotations) != len(anns) {
		t.Fatalf("got %d annotations, want %d: %+v", len(ld.Annotations), len(anns), ld.Annotations)
	}
	for i := range anns {
		if ld.Annotations[i] != anns[i] {
			t.Fatalf("annotation %d did not round trip: %+v vs %+v", i, ld.Annotations[i], anns[i])
		}
	}

	// Re-exporting the loaded trace preserves the annotation track.
	var buf2 bytes.Buffer
	if err := ld.WriteTraceEvents(&buf2); err != nil {
		t.Fatal(err)
	}
	ld2, err := ReadTraceEvents(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld2.Annotations) != len(anns) || len(ld2.Spans) != len(orig) {
		t.Fatalf("re-export lost content: %d annotations, %d spans", len(ld2.Annotations), len(ld2.Spans))
	}
	// Window views keep the annotations alongside the filtered spans.
	if w := ld.Window(9000, 12000); len(w.Annotations) != len(anns) {
		t.Fatalf("Window dropped annotations: %+v", w.Annotations)
	}
}
