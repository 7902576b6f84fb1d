package harness

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/units"
)

// fusionCell runs one Figure 4 cell with a windowed-metrics registry
// attached, returning the rendered result row, the registry's JSON dump
// and the execution-cost readout — the artefacts the express-path fusion
// contract says must not depend on whether fusion is enabled.
func fusionCell(t *testing.T, noFusion bool, scIdx, caseIdx int, seed uint64) (string, []byte, CellPerf) {
	t.Helper()
	opt := Options{Seed: seed, TimeScale: 4, NoFusion: noFusion}
	reg := metrics.New(metrics.Config{Window: 100 * units.Microsecond})
	sc := Figure4Scenarios()[scIdx]
	res, perf, err := figure4Cell(sc, Fig4Cases()[caseIdx], opt, Observers{Registry: reg})
	if err != nil {
		t.Fatalf("noFusion=%v scenario=%d: %v", noFusion, scIdx, err)
	}
	var dump bytes.Buffer
	if err := reg.Dump().WriteJSON(&dump); err != nil {
		t.Fatalf("noFusion=%v scenario=%d: dump: %v", noFusion, scIdx, err)
	}
	return RenderFigure4([]Fig4Result{res}), dump.Bytes(), perf
}

// fusionConfigs is the differential sweep: every scenario (both platforms,
// all five shared links — the flow mixes cover DRAM, CXL, intra- and
// inter-chiplet LLC paths), across demand cases from under-subscribed to
// unequal over-subscription, and several seeds. The over-subscribed cases
// keep the shared
// channels busy, so mid-segment contention constantly aborts fused
// segments through the exitExpress/flush fallback.
var fusionConfigs = []struct {
	scIdx, caseIdx int
	seed           uint64
}{
	{3, 2, 42},  // 7302 inter-CC IF, equal over-subscription
	{3, 1, 7},   // same link, one flow below share
	{3, 3, 5},   // same link, unequal over-subscription
	{0, 0, 99},  // 9634 intra-CC IF, under-subscribed (fusion-rich: idle hops)
	{1, 2, 123}, // 9634 UMC/GMI hub crossings
	{2, 2, 42},  // 9634 P link (CXL path, slow epochs)
	{4, 3, 11},  // 7302 UMC/GMI, unequal over-subscription
}

// TestFusionInvisibleCells pins the tentpole's determinism contract: a
// cell's rendered results and windowed-metrics dumps are byte-identical
// with express-path fusion on (the default) and off, for every platform,
// flow mix and seed in the sweep. Fusion elides events; it
// must never reorder, retime or recount anything an observer can see.
// The classic-equivalent event total (executed + fused) must also agree
// between the two runs — fusion moves events between the two counters
// without inventing or losing any.
func TestFusionInvisibleCells(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-identity is race-agnostic; TestParallelMatchesSerial runs concurrent cells under -race")
	}
	var elided uint64
	for _, cfg := range fusionConfigs {
		wantRow, wantDump, wantPerf := fusionCell(t, true, cfg.scIdx, cfg.caseIdx, cfg.seed)
		row, dump, perf := fusionCell(t, false, cfg.scIdx, cfg.caseIdx, cfg.seed)
		if row != wantRow {
			t.Errorf("%+v: result row differs with fusion on:\n%s\nvs\n%s", cfg, wantRow, row)
		}
		if !bytes.Equal(dump, wantDump) {
			t.Errorf("%+v: metrics dump differs with fusion on (%d vs %d bytes)",
				cfg, len(wantDump), len(dump))
		}
		if got, want := perf.Events+perf.Fused, wantPerf.Events+wantPerf.Fused; got != want {
			t.Errorf("%+v: classic-equivalent event total changed: %d fused vs %d unfused", cfg, got, want)
		}
		// The intra-CC path has no fusable interior hop (its one
		// non-terminal state is the relaxed first hop, whose depart is
		// elided either way), so walker-level elision is asserted over
		// the sweep, not per cell — but fusion must never add events.
		if perf.Events > wantPerf.Events {
			t.Errorf("%+v: fusion added events: executed %d fused vs %d unfused",
				cfg, perf.Events, wantPerf.Events)
		}
		elided += wantPerf.Events - perf.Events
	}
	if elided == 0 {
		t.Error("sweep elided no walker events: express-path fusion never engaged")
	}
}

// TestFusionInvisibleSpans pins the trace half of the contract: a traced
// cell produces a byte-identical span stream with fusion on and off. Fused hops record
// their serializer spans in closed form, in the same ring order and with
// the same stamps as the classic per-hop events.
func TestFusionInvisibleSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-identity is race-agnostic; TestParallelMatchesSerial runs concurrent cells under -race")
	}
	traceBytes := func(noFusion bool, scIdx, caseIdx int) ([]byte, string) {
		opt := Options{Seed: 42, TimeScale: 4, NoFusion: noFusion}
		tr := trace.New(trace.Config{SpanCap: 1 << 16})
		res, _, err := figure4Cell(Figure4Scenarios()[scIdx], Fig4Cases()[caseIdx], opt, Observers{Tracer: tr})
		if err != nil {
			t.Fatalf("noFusion=%v: %v", noFusion, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteTraceEvents(&buf); err != nil {
			t.Fatalf("noFusion=%v: %v", noFusion, err)
		}
		return buf.Bytes(), RenderFigure4([]Fig4Result{res})
	}
	// Scenario 1 crosses the DRAM hub; scenario 3 walks the inter-CC path
	// whose response legs fuse across four channels. Case 2 keeps the
	// shared link saturated so fallback rematerialization is traced too.
	for _, scIdx := range []int{1, 3} {
		wantTrace, wantRow := traceBytes(true, scIdx, 2)
		gotTrace, gotRow := traceBytes(false, scIdx, 2)
		if gotRow != wantRow {
			t.Errorf("scenario %d: traced cell result differs with fusion on:\n%s\nvs\n%s",
				scIdx, wantRow, gotRow)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("scenario %d: trace differs with fusion on (%d vs %d bytes)",
				scIdx, len(wantTrace), len(gotTrace))
		}
	}
}

// TestFusionContentionFallback pins the fallback path under sustained
// contention: with both flows demanding more than the shared link serves
// (case 3, unequal over-subscription), fused segments constantly meet
// busy channels mid-flight and must rematerialize classic events at
// exact classic timestamps. The cell must still be byte-identical, and
// the execution profile must show both machineries at work: events were
// elided, and far more events ran than a fully-fused walk would leave.
func TestFusionContentionFallback(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-identity is race-agnostic; TestParallelMatchesSerial runs concurrent cells under -race")
	}
	wantRow, wantDump, wantPerf := fusionCell(t, true, 3, 3, 42)
	row, dump, perf := fusionCell(t, false, 3, 3, 42)
	if row != wantRow {
		t.Errorf("contended cell result differs with fusion on:\n%s\nvs\n%s", wantRow, row)
	}
	if !bytes.Equal(dump, wantDump) {
		t.Errorf("contended cell metrics dump differs with fusion on (%d vs %d bytes)",
			len(wantDump), len(dump))
	}
	if perf.Fused <= wantPerf.Fused {
		t.Errorf("no walker-level fusion under contention: fused %d on vs %d off",
			perf.Fused, wantPerf.Fused)
	}
	if perf.Events*2 <= perf.Fused {
		t.Errorf("contended cell fused implausibly much: %d executed, %d fused — fallback path untested",
			perf.Events, perf.Fused)
	}
}

// TestFusionEffectivenessGate is the express-path fusion perf gate, run
// from ci.sh with CHIPLET_FUSION_GATE=1: the full-length 7302 inter-CC IF
// cell (the benchmark's fig4_flagship workload) must elide a large,
// deterministic share of its classic-equivalent event load. Wall clocks
// on shared CI hosts are too noisy to gate, so the gate holds the event
// ledger itself, which is seed-exact:
//
//   - elision share: fused / (executed + fused) — the fraction of the
//     classic-equivalent calendar the fusion layer never dispatched;
//   - work multiplier: (executed + fused) / executed — how many
//     classic-equivalent events the cell advances per executed event, the
//     deterministic core of the events-per-second claim (per-event
//     dispatch cost is what wall benchmarks then multiply in);
//   - hop fusion rate: fused / (2 x messages) — elided events as a share
//     of the classic per-message event pairs (depart + delivery). The
//     cell is pure reads, so every message's depart is stamp-elided and
//     the unfused run's counter equals the message count exactly.
func TestFusionEffectivenessGate(t *testing.T) {
	if os.Getenv("CHIPLET_FUSION_GATE") == "" {
		t.Skip("set CHIPLET_FUSION_GATE=1 to run the fusion-effectiveness gate (two full-length cells)")
	}
	sc := Figure4Scenarios()[3]
	c := Fig4Cases()[2]
	run := func(noFusion bool) CellPerf {
		opt := Options{Seed: 42, TimeScale: 1, NoFusion: noFusion}
		_, perf, err := figure4Cell(sc, c, opt, Observers{})
		if err != nil {
			t.Fatalf("noFusion=%v: %v", noFusion, err)
		}
		return perf
	}
	fused := run(false)
	unfused := run(true)
	if got, want := fused.Events+fused.Fused, unfused.Events+unfused.Fused; got != want {
		t.Fatalf("classic-equivalent totals disagree: %d fused vs %d unfused", got, want)
	}
	total := float64(fused.Events + fused.Fused)
	share := float64(fused.Fused) / total
	mult := total / float64(fused.Events)
	messages := float64(unfused.Fused) // one stamp-elided depart per message
	hopRate := float64(fused.Fused) / (2 * messages)
	t.Logf("executed %d  fused %d  elision share %.3f  work multiplier %.2fx  hop fusion rate %.3f",
		fused.Events, fused.Fused, share, mult, hopRate)
	if share < 0.40 {
		t.Errorf("elision share %.3f below the 0.40 gate", share)
	}
	if mult < 1.5 {
		t.Errorf("work multiplier %.2fx below the 1.5x gate", mult)
	}
	if hopRate < 0.50 {
		t.Errorf("hop fusion rate %.3f below the 0.50 gate", hopRate)
	}
}
