package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// constructionListing renders what a network registers by name, in order:
// its channels, its pools, the tracer hops AttachTracer registers and the
// instruments AttachMetrics registers. Trace hop ids and metrics
// instrument ids are positions in the last two lists.
func constructionListing(p *topology.Profile) string {
	n := New(sim.New(1), p)
	tr := trace.New(trace.Config{SpanCap: 16})
	n.AttachTracer(tr)
	reg := metrics.New(metrics.Config{})
	n.AttachMetrics(reg)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s channels\n", p.Name)
	for _, ch := range n.Channels() {
		fmt.Fprintln(&b, ch.Name())
	}
	fmt.Fprintf(&b, "# %s pools\n", p.Name)
	for _, pl := range n.Pools() {
		fmt.Fprintln(&b, pl.Name())
	}
	fmt.Fprintf(&b, "# %s trace hops\n", p.Name)
	for i, h := range tr.Hops() {
		fmt.Fprintln(&b, i, h.Name, h.Kind)
	}
	// One line per run of instruments on one resource: the run's first
	// id, the resource and family, then each metric with its unit.
	fmt.Fprintf(&b, "# %s instruments\n", p.Name)
	for i := 0; i < reg.NumInstruments(); i++ {
		d := reg.Desc(i)
		if i == 0 || reg.Desc(i-1).Resource != d.Resource {
			if i > 0 {
				b.WriteByte('\n')
			}
			fmt.Fprint(&b, i, " ", d.Resource, " ", d.Family)
		}
		fmt.Fprintf(&b, " %s/%s", d.Metric, d.Unit)
	}
	b.WriteByte('\n')
	return b.String()
}

// TestConstructionNamesPinned holds both platforms' channel and pool
// names, their order, the trace hop ids and the metrics instrument order
// to testdata/construction.golden: every observer output is keyed by them.
func TestConstructionNamesPinned(t *testing.T) {
	var got strings.Builder
	for _, p := range topology.Profiles() {
		got.WriteString(constructionListing(p))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "construction.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// maxNewBytes is what core.New cost per platform when it allocated every
// channel, pool and name on its own (1,823 allocations on the 9634): the
// slabbed build must not spend more.
var maxNewBytes = map[string]uint64{"EPYC 7302": 26804, "EPYC 9634": 144961}

// TestNewAllocs holds core.New to a fixed handful of allocations on both
// platforms (one slab per component kind, one name string), and to no
// more bytes than the one-object-per-component build it replaced. ci.sh
// gates BenchmarkNew the same way.
func TestNewAllocs(t *testing.T) {
	// TotalAlloc is process-wide: hold one P, as AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 20
	for _, p := range topology.Profiles() {
		eng := sim.New(1) // construction schedules nothing: one engine serves every build
		if allocs := testing.AllocsPerRun(runs, func() { New(eng, p) }); allocs > 64 {
			t.Errorf("%s: core.New makes %.0f allocations, want at most 64", p.Name, allocs)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			New(eng, p)
		}
		runtime.ReadMemStats(&m1)
		if bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs; bytes > maxNewBytes[p.Name] {
			t.Errorf("%s: core.New allocates %d B, more than the %d B of one object per component",
				p.Name, bytes, maxNewBytes[p.Name])
		}
	}
}

// attaches lists the observer attaches, each split into building its
// observer and the call that attaches it to n.
var attaches = []struct {
	name   string
	attach func(n *Network) func()
}{
	{"Metrics", func(n *Network) func() {
		reg := metrics.New(metrics.Config{})
		return func() { n.AttachMetrics(reg) }
	}},
	{"Tracer", func(n *Network) func() {
		tr := trace.New(trace.Config{SpanCap: 16})
		return func() { n.AttachTracer(tr) }
	}},
}

// maxAttachAllocs bounds each attach: the registry's or tracer's tables
// sized once, one string of names and the tracer's stage-hop table.
const maxAttachAllocs = 16

// TestAttachAllocs holds AttachMetrics and AttachTracer to a fixed
// handful of allocations on both platforms, not one per instrument, hop
// or name. Networks and observers are built beforehand, so only the
// attach is counted. ci.sh gates BenchmarkAttach the same way.
func TestAttachAllocs(t *testing.T) {
	const runs = 20
	for _, p := range topology.Profiles() {
		eng := sim.New(1)
		for _, a := range attaches {
			calls := make([]func(), runs+1) // AllocsPerRun makes one warm-up call
			for i := range calls {
				calls[i] = a.attach(New(eng, p))
			}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() { calls[i](); i++ })
			if allocs > maxAttachAllocs {
				t.Errorf("%s: Attach%s makes %.0f allocations, want at most %d", p.Name, a.name, allocs, maxAttachAllocs)
			}
		}
	}
}
