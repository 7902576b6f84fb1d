package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestObservedCellPinned holds what the metrics probes and the tracer's
// hop registrations read on ci.sh's smoke cells (reproduce -scale 16
// -stats-window 25us with -trace and -stats) to what they read while
// every probe was still a closure over its component: the instrument and
// window counts, the SHA-256 of the metrics dump's JSON (every Desc and
// every window's values), the hop count and the SHA-256 of the tracer's
// hop table with each hop's counters.
func TestObservedCellPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiment cells")
	}
	for _, tc := range []struct{ cell, want string }{
		{"fig4:1:2", "2332 instruments, 1 windows, dump 08ae9085bf04573c96fe2c1c8a19cec9; 599 hops, table a1dfbafed2de01c00bbc56f7fa2b1f29"},
		{"fig5:0", "2332 instruments, 240 windows, dump 944053780fb3c4ca3e6118b19e66b559; 599 hops, table 87899361ef41595cc2cc8b778df80537"},
	} {
		obs := Observers{
			Tracer:   trace.New(trace.Config{}),
			Registry: metrics.New(metrics.Config{Window: 25 * units.Microsecond}),
		}
		mustRunCell(t, Options{Seed: 42, TimeScale: 16}, tc.cell, obs)
		reg, tr := obs.Registry, obs.Tracer
		dump := sha256.New()
		if err := reg.Dump().WriteJSON(dump); err != nil {
			t.Fatal(err)
		}
		hops := sha256.New()
		for i, h := range tr.Hops() {
			c := tr.Counters(trace.HopID(i))
			fmt.Fprintln(hops, i, h.Name, h.Kind, c.Meter.Bytes(), c.Meter.Ops(), c.Spans, c.ByCause)
		}
		got := fmt.Sprintf("%d instruments, %d windows, dump %.16x; %d hops, table %.16x",
			reg.NumInstruments(), reg.Total(), dump.Sum(nil), len(tr.Hops()), hops.Sum(nil))
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.cell, got, tc.want)
		}
	}
}
