package mesh

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/units"
)

func TestMemoryRouteMatchesTable2(t *testing.T) {
	// The route total for each DIMM position must land on the paper's
	// Table 2 "Memory/Device" rows (within the calibration tolerance
	// documented in EXPERIMENTS.md).
	cases := []struct {
		prof *topology.Profile
		want map[topology.Position]units.Time
		tol  units.Time
	}{
		{
			prof: topology.EPYC7302(),
			want: map[topology.Position]units.Time{
				topology.Near:       124 * units.Nanosecond,
				topology.Vertical:   131 * units.Nanosecond,
				topology.Horizontal: 141 * units.Nanosecond,
				topology.Diagonal:   145 * units.Nanosecond,
			},
			tol: 3 * units.Nanosecond,
		},
		{
			prof: topology.EPYC9634(),
			want: map[topology.Position]units.Time{
				topology.Near:       141 * units.Nanosecond,
				topology.Vertical:   145 * units.Nanosecond,
				topology.Horizontal: 150 * units.Nanosecond,
				topology.Diagonal:   149 * units.Nanosecond,
			},
			tol: 2 * units.Nanosecond,
		},
	}
	for _, c := range cases {
		for pos, want := range c.want {
			umc, ok := c.prof.UMCAtPosition(0, pos)
			if !ok {
				t.Fatalf("%s: no %v channel", c.prof.Name, pos)
			}
			got := MemoryRoute(c.prof, 0, umc).Total()
			if got < want-c.tol || got > want+c.tol {
				t.Errorf("%s %v: route total %v, paper %v (tol %v)", c.prof.Name, pos, got, want, c.tol)
			}
		}
	}
}

func TestCXLRouteMatchesTable2(t *testing.T) {
	got := CXLRoute(topology.EPYC9634(), 0).Total()
	want := 243 * units.Nanosecond
	if got < want-units.Nanosecond || got > want+units.Nanosecond {
		t.Errorf("9634 CXL route total = %v, paper 243ns", got)
	}
}

func TestRouteString(t *testing.T) {
	r := MemoryRoute(topology.EPYC7302(), 0, 0)
	s := r.String()
	for _, want := range []string{"l3-miss+ccm", "gmi", "shops[2]", "cs", "umc+dram", "serialization"} {
		if !strings.Contains(s, want) {
			t.Errorf("route string %q missing %q", s, want)
		}
	}
	if (Route{}).Total() != 0 {
		t.Error("empty route total should be 0")
	}
}

func TestHopDelays(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC7302()
	n := new(NoC)
	n.Init(eng, p)
	if n.HopDelay(3) != 21*units.Nanosecond {
		t.Errorf("HopDelay(3) = %v", n.HopDelay(3))
	}
	umc, _ := p.UMCAtPosition(0, topology.Diagonal)
	if n.MemoryHopDelay(0, umc) != units.Time(p.BaseSHops+3)*p.SHopLatency {
		t.Errorf("diagonal MemoryHopDelay = %v", n.MemoryHopDelay(0, umc))
	}
	if n.IOHopDelay(0) != units.Time(p.IOHubHops(0))*p.SHopLatency {
		t.Errorf("IOHopDelay = %v", n.IOHopDelay(0))
	}
}

// TestHopTablesMatchProfile: every entry of the hop tables Init builds must
// equal the delay of the profile's own hop count, on both platforms.
func TestHopTablesMatchProfile(t *testing.T) {
	for _, p := range []*topology.Profile{topology.EPYC7302(), topology.EPYC9634()} {
		n := new(NoC)
		n.Init(sim.New(1), p)
		for ccd := 0; ccd < p.CCDs; ccd++ {
			for umc := 0; umc < p.UMCChannels; umc++ {
				if got, want := n.MemoryHopDelay(ccd, umc), n.HopDelay(p.MemoryHops(ccd, umc)); got != want {
					t.Errorf("%s: MemoryHopDelay(%d, %d) = %v, want %v", p.Name, ccd, umc, got, want)
				}
			}
			if got, want := n.IOHopDelay(ccd), n.HopDelay(p.IOHubHops(ccd)); got != want {
				t.Errorf("%s: IOHopDelay(%d) = %v, want %v", p.Name, ccd, got, want)
			}
		}
	}
}

func TestNoCCapacities(t *testing.T) {
	eng := sim.New(1)
	p := topology.EPYC9634()
	n := new(NoC)
	n.Init(eng, p)
	if n.Read.Capacity() != p.NoCReadCap || n.Write.Capacity() != p.NoCWriteCap {
		t.Error("NoC channel capacities do not match profile")
	}
	if n.Read.Depth() != p.NoCReadQueue {
		t.Error("NoC read queue depth wrong")
	}
}

func TestIFRoutes(t *testing.T) {
	p := topology.EPYC7302()
	if IntraCCRoute(p).Total() != p.IntraCCLatency {
		t.Error("intra-CC route total wrong")
	}
	if InterCCRoute(p).Total() != p.InterCCLatency {
		t.Error("inter-CC route total wrong")
	}
}
