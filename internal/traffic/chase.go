package traffic

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/txn"
	"repro/internal/units"
)

// ChaseConfig describes a pointer-chase run: a single dependent-load chain
// over a working set, the methodology behind the paper's Table 2 ("we
// measured the latency by configuring the pointer-chasing mode of our
// utility and gradually increasing the working set").
type ChaseConfig struct {
	WorkingSet units.ByteSize
	// UMCs is the channel set the working set is interleaved across when
	// it spills to memory (e.g. topology.Profile.UMCSet for an NPS
	// configuration, or a single position-class channel).
	UMCs []int
	// CXL, when true, homes the working set on CXL modules instead.
	CXL     bool
	Modules []int
	// Count is the number of dependent loads to time (default 2000).
	Count int
}

// RunPointerChase executes the chase and returns the per-load latency
// histogram. Loads are fully serialized — each issues only after the
// previous completed — exactly like a dependent pointer walk. Working
// sets that fit in a cache tier never leave the chiplet and are timed at
// that tier's latency.
func RunPointerChase(net *core.Network, cfg ChaseConfig) (*telemetry.Histogram, error) {
	if cfg.Count <= 0 {
		cfg.Count = 2000
	}
	p := net.Profile()
	ccfg := cache.ConfigFromProfile(p)
	level := ccfg.ServiceLevel(cfg.WorkingSet)
	var h telemetry.Histogram
	eng := net.Engine()

	if level != cache.Memory {
		// On-chiplet: the chase never touches the network. Dependent
		// loads complete at the tier latency, one after another.
		lat := cache.Latency(p, level)
		done := 0
		var step func()
		step = func() {
			h.Record(lat)
			done++
			if done < cfg.Count {
				eng.After(lat, step)
			}
		}
		eng.After(lat, step)
		eng.Run()
		return &h, nil
	}

	kind := core.DestDRAM
	var set []int
	if cfg.CXL {
		kind = core.DestCXL
		set = cfg.Modules
		if len(set) == 0 {
			return nil, fmt.Errorf("traffic: CXL chase with no modules")
		}
		if p.CXLModules == 0 {
			return nil, fmt.Errorf("traffic: CXL chase on %s which has no CXL", p.Name)
		}
	} else {
		set = cfg.UMCs
		if len(set) == 0 {
			return nil, fmt.Errorf("traffic: memory chase with no channels")
		}
	}

	// Two closures for the whole chase (the loads are fully serialized, so
	// one continuation pair suffices) rather than one per load.
	done := 0
	var step func()
	record := func(t *txn.Transaction) {
		h.Record(t.Latency())
		done++
		if done < cfg.Count {
			step()
		}
	}
	step = func() {
		a := core.Access{Op: txn.Read, Kind: kind}
		target := set[done%len(set)]
		if cfg.CXL {
			a.Module = target
		} else {
			a.UMC = target
		}
		net.Issue(a, nil, record)
	}
	step()
	eng.Run()
	return &h, nil
}
