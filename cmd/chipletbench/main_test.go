package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"
)

func TestParseSize(t *testing.T) {
	valid := map[string]units.ByteSize{
		"64":    64,
		"64B":   64,
		"16KiB": 16 * units.KiB,
		"8MiB":  8 * units.MiB,
		"1GiB":  units.GiB,
	}
	for in, want := range valid {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"1.5GiB", "16KiBx", "GiB", "", "B", "0", "-4KiB", "16 KiB", "1e3", "99999999999GiB"} {
		if got, err := parseSize(in); err == nil {
			t.Errorf("parseSize(%q) = %v, want an error", in, got)
		}
	}
}

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		mode     string
		duration int
		demand   float64
		ok       bool
	}{
		{"bandwidth", 100, 0, true},
		{"latency", 100, 25, true},
		{"chase", 1, 0, true},
		{"bogus", 100, 0, false},
		{"", 100, 0, false},
		{"bandwidth", 0, 0, false},
		{"bandwidth", -5, 0, false},
		{"bandwidth", 100, -1, false},
		{"latency", 100, math.NaN(), false},
	}
	for _, c := range cases {
		err := checkFlags(c.mode, c.duration, c.demand)
		if (err == nil) != c.ok {
			t.Errorf("checkFlags(%q, %d, %v) = %v, want ok=%v", c.mode, c.duration, c.demand, err, c.ok)
		}
	}
}

// TestCoreListClamps: -cores outside [1, Cores] runs the clamped count,
// which the workload line reports.
func TestCoreListClamps(t *testing.T) {
	p := topology.EPYC7302()
	for n, want := range map[int]int{-3: 1, 0: 1, 5: 5, p.Cores: p.Cores, p.Cores + 1: p.Cores} {
		if got := len(coreList(p, n)); got != want {
			t.Errorf("coreList(%d) has %d cores, want %d", n, got, want)
		}
	}
}

// TestProfileObservesMeasurement: -profile must report the measurement
// window's completions, the same count the flow's own histogram holds.
func TestProfileObservesMeasurement(t *testing.T) {
	p := topology.EPYC9634()
	net := core.New(sim.New(42), p)
	cfg := traffic.FlowConfig{
		Name:  "bench",
		Cores: coreList(p, 4),
		Op:    txn.Read,
		Kind:  core.DestDRAM,
		UMCs:  p.UMCSet(topology.NPS1, 0),
	}
	f, prf, err := measure(net, cfg, 5*units.Microsecond, true)
	if err != nil {
		t.Fatal(err)
	}
	ops := f.Latency().Count()
	if ops == 0 {
		t.Fatal("flow completed nothing in the measurement window")
	}
	if got := prf.TotalOps(); got != ops {
		t.Errorf("profiler saw %d ops, flow completed %d", got, ops)
	}
}
