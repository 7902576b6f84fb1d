package harness

import (
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/txn"
	"repro/internal/units"

	icore "repro/internal/core"
)

// TestRecyclingInvisibleToFigure4 extends the serial==parallel determinism
// guard to the object pools: a seeded Figure-4 scenario must produce
// byte-identical results with transaction/walker recycling on or off, and
// serially or across workers. Pooling reuses memory; it must never reorder
// events or perturb a single random draw.
func TestRecyclingInvisibleToFigure4(t *testing.T) {
	base := quick()
	base.Workers = 1
	sc := Figure4Scenarios()[1] // UMC/GMI contention: heavy token queueing
	want, err := Figure4Run(sc, base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opt  Options
	}{
		{"no-recycle serial", Options{Seed: 42, TimeScale: 4, Workers: 1, DisableRecycle: true}},
		{"no-recycle 4 workers", Options{Seed: 42, TimeScale: 4, Workers: 4, DisableRecycle: true}},
		{"recycle 4 workers", Options{Seed: 42, TimeScale: 4, Workers: 4}},
	}
	for _, v := range variants {
		got, err := Figure4Run(sc, v.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s diverged from pooled serial run:\nwant %+v\ngot  %+v", v.name, want, got)
		}
	}
}

// TestRecyclingInvisibleToCompletionTimes compares one contended cell at
// full depth: per-transaction completion-latency percentiles, the rendered
// traffic matrix a flow observer builds, and every channel's stats
// snapshot must be identical with pooling on and off.
func TestRecyclingInvisibleToCompletionTimes(t *testing.T) {
	type snapshot struct {
		p50, p99, max units.Time
		matrix        string
		stats         []link.Stats
	}
	run := func(disable bool) snapshot {
		opt := quick()
		opt.DisableRecycle = disable
		p := topology.EPYC7302()
		net := opt.newNet(p)
		if net.Recycling() == disable {
			t.Fatalf("DisableRecycle=%v not applied to the network", disable)
		}
		matrix := telemetry.NewTrafficMatrix()
		f := traffic.MustFlow(net, traffic.FlowConfig{
			Name: "det", Cores: ccdCores(p, 0), Op: txn.Read,
			Kind: icore.DestDRAM, UMCs: p.UMCSet(topology.NPS1, 0),
			Observer: func(t *txn.Transaction) {
				matrix.Record(t.Flow.Src.String(), t.Flow.Dst.String(), t.Size)
			},
		})
		f.Start()
		net.Engine().RunFor(opt.scale(20 * units.Microsecond))
		s := snapshot{
			p50:    f.Latency().Percentile(50),
			p99:    f.Latency().Percentile(99),
			max:    f.Latency().Max(),
			matrix: matrix.String(),
		}
		for _, ch := range net.Channels() {
			s.stats = append(s.stats, ch.Stats())
		}
		return s
	}
	pooled, fresh := run(false), run(true)
	if !reflect.DeepEqual(pooled, fresh) {
		t.Errorf("pooling changed observable results:\npooled: %+v\nfresh:  %+v", pooled, fresh)
	}
}

// TestRecyclingReachesBothSockets checks that A3's dual-socket system gets
// the same DisableRecycle treatment as every single-socket network.
func TestRecyclingReachesBothSockets(t *testing.T) {
	for _, disable := range []bool{false, true} {
		opt := quick()
		opt.DisableRecycle = disable
		sys := opt.newSystem()
		for i := 0; i < 2; i++ {
			if sys.Socket(i).Recycling() != !disable {
				t.Errorf("DisableRecycle=%v: socket %d Recycling() = %v", disable, i, sys.Socket(i).Recycling())
			}
		}
	}
}
