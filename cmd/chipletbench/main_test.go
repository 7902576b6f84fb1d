package main

import (
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
