package harness

import (
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/units"
)

// mustRunCell parses name and runs the cell with obs attached.
func mustRunCell(t *testing.T, opt Options, name string, obs Observers) CellResult {
	t.Helper()
	cell, err := ParseCell(name)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := RunCell(opt, cell, obs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestParseCell(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Cell
	}{
		{"fig4:1:2", Cell{Fig: 4, Scenario: 1, Case: 2}},
		{"fig5:0", Cell{Fig: 5, Scenario: 0}},
	} {
		got, err := ParseCell(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCell(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%+v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	for _, in := range []string{
		"", "fig4", "fig4:1", "fig4:x:2", "fig4:-1:0", "fig4:5:0", "fig4:1:4",
		"fig5:3", "fig5:0:2", "fig7:0:0",
	} {
		if c, err := ParseCell(in); err == nil {
			t.Errorf("ParseCell(%q) = %+v, want an error", in, c)
		}
	}
}

// TestRunCellValidation: a Cell built by hand is checked the way
// ParseCell checks one, before any simulation runs.
func TestRunCellValidation(t *testing.T) {
	for _, c := range []Cell{
		{Fig: 4, Scenario: 99},
		{Fig: 4, Scenario: -1},
		{Fig: 4, Case: 99},
		{Fig: 5, Scenario: 99},
		{Fig: 5, Case: 1},
		{Fig: 7},
	} {
		if _, _, err := RunCell(quick(), c, Observers{}); err == nil {
			t.Errorf("RunCell accepted %+v", c)
		}
	}
}

// plainCells memoizes one unobserved run per cell for the observer
// determinism guards below.
var plainCells = map[string]CellResult{}

// checkInvisible is the observer determinism guard: the flight recorder
// only stamps spans, the harvest tick only reads counters the simulation
// already keeps, and detectors only read harvested windows — none touches
// the RNG or component state, so the observed cell must produce
// byte-identical results to its plain run.
func checkInvisible(t *testing.T, cell string, obs Observers) {
	t.Helper()
	opt := quick()
	want, ok := plainCells[cell]
	if !ok {
		want = mustRunCell(t, opt, cell, Observers{})
		plainCells[cell] = want
	}
	got := mustRunCell(t, opt, cell, obs)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("observers changed the result:\nplain    %+v\nobserved %+v", want, got)
	}
}

func TestFigure4StatsCellMatchesPlain(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	checkInvisible(t, "fig4:1:2", Observers{Registry: reg})
	if reg.Total() == 0 {
		t.Error("registry harvested no windows")
	}
}

func TestFigure4MonitoredCellMatchesPlain(t *testing.T) {
	reg := metrics.New(metrics.Config{Window: 25 * units.Microsecond})
	mon := anomaly.Attach(reg, anomaly.Config{})
	checkInvisible(t, "fig4:1:2", Observers{Registry: reg})
	if mon.NumWatched() == 0 {
		t.Error("monitor watched no instruments")
	}
}

func TestFigure5StatsRunMatchesPlain(t *testing.T) {
	reg := metrics.New(metrics.Config{})
	checkInvisible(t, "fig5:0", Observers{Registry: reg})
	// Six virtual seconds at one window per 100 us.
	if reg.Total() != 60 {
		t.Errorf("harvested %d windows, want 60", reg.Total())
	}
}

func TestFigure5MonitoredRunMatchesPlain(t *testing.T) {
	reg := metrics.New(metrics.Config{})
	mon := anomaly.Attach(reg, anomaly.Config{})
	checkInvisible(t, "fig5:0", Observers{Registry: reg})
	if mon.NumWatched() == 0 {
		t.Error("monitor watched no instruments")
	}
}

// TestObserversInvisible holds the flight recorder to the same guard on
// both cell kinds.
func TestObserversInvisible(t *testing.T) {
	for _, cell := range []string{"fig4:1:2", "fig5:0"} {
		t.Run(cell, func(t *testing.T) {
			tr := trace.New(trace.Config{})
			checkInvisible(t, cell, Observers{Tracer: tr})
			if tr.TxnCount() == 0 || tr.SpanCount() == 0 {
				t.Errorf("trace empty: %d txns, %d spans", tr.TxnCount(), tr.SpanCount())
			}
		})
	}
}

// TestTraceAttribution runs the congested UMC/GMI cell
// (scenario 1, equal over-subscribing demands) with the flight recorder
// on and checks its attribution contract: >= 95% of total transaction
// latency attributed to named causes, and exact per-transaction span
// tilings away from the window boundaries.
func TestTraceAttribution(t *testing.T) {
	tr := trace.New(trace.Config{})
	mustRunCell(t, Options{Seed: 42, TimeScale: 16, Workers: 1}, "fig4:1:2", Observers{Tracer: tr})
	if tr.TxnCount() == 0 || tr.SpanCount() == 0 {
		t.Fatalf("trace empty: %d txns, %d spans", tr.TxnCount(), tr.SpanCount())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("span ring wrapped (%d dropped) at this scale", tr.Dropped())
	}

	// Aggregate coverage: the breakdown must attribute >= 95% of the
	// total end-to-end latency (boundary transactions straddling the
	// enable edge account for the shortfall).
	var attributed units.Time
	for _, d := range tr.AttributedTime() {
		attributed += d
	}
	cov := float64(attributed) / float64(tr.TotalLatency())
	if cov < 0.95 {
		t.Fatalf("attributed %.2f%% of total latency, want >= 95%%", 100*cov)
	}

	// Per-transaction reconciliation: only transactions already in
	// flight when tracing was enabled may miss span time, and no
	// transaction may ever over-attribute (a negative residual would
	// mean overlapping spans).
	zero, positive := 0, 0
	for _, r := range tr.Reconcile() {
		switch {
		case r.Residual == 0:
			zero++
		case r.Residual > 0:
			positive++
		default:
			t.Fatalf("txn %d over-attributed: residual %v", r.Txn.ID, r.Residual)
		}
	}
	total := zero + positive
	if frac := float64(zero) / float64(total); frac < 0.99 {
		t.Fatalf("only %.2f%% of %d transactions tile exactly, want >= 99%%", 100*frac, total)
	}
}
