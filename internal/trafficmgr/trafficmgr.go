// Package trafficmgr implements the global software traffic manager the
// paper's Implication #4 calls for: "introduce the communication flow
// abstraction, materialize it in a global software-based traffic manager,
// and expose it to the chiplet network. In this way, one could develop
// application-specialized traffic control instead of relying on the sender
// side naively."
//
// The manager holds a registry of flows and a catalogue of shared resources
// (link directions with capacities). Every management epoch it reads each
// flow's declared demand, computes a max-min fair allocation by
// water-filling across the shared resources, and enforces it by pacing
// each flow — replacing the chiplet network's sender-driven aggressive
// partitioning (§3.5) with an allocation the operator controls. The A1 ablation in the harness quantifies the effect
// on the paper's Figure 4 cases.
package trafficmgr

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/units"
)

// FlowSpec is the allocator's view of one flow: its demand (0 = unbounded)
// and the indices of the resources it crosses.
type FlowSpec struct {
	Demand    units.Bandwidth
	Resources []int
}

// Allocate computes the max-min fair allocation of flows over resources by
// progressive filling: every active flow's rate rises by the same step
// until it meets its demand or saturates a resource it crosses, at which
// point it (or every flow on the saturated resource) freezes. The returned
// slice holds one allocation per flow.
//
// Allocate is a pure function so the fairness policy is testable in
// isolation from the simulator.
func Allocate(flows []FlowSpec, resources []units.Bandwidth) []units.Bandwidth {
	alloc := make([]units.Bandwidth, len(flows))
	frozen := make([]bool, len(flows))
	used := make([]float64, len(resources))

	for i, f := range flows {
		for _, r := range f.Resources {
			if r < 0 || r >= len(resources) {
				panic(fmt.Sprintf("trafficmgr: flow %d references resource %d of %d", i, r, len(resources)))
			}
		}
	}

	for {
		// Find the smallest rate increment that freezes something.
		step := math.Inf(1)
		anyActive := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			anyActive = true
			if f.Demand > 0 {
				if room := float64(f.Demand) - float64(alloc[i]); room < step {
					step = room
				}
			}
		}
		if !anyActive {
			break
		}
		for r, cap := range resources {
			active := 0
			for i, f := range flows {
				if frozen[i] {
					continue
				}
				for _, fr := range f.Resources {
					if fr == r {
						active++
						break
					}
				}
			}
			if active == 0 {
				continue
			}
			if room := (float64(cap) - used[r]) / float64(active); room < step {
				step = room
			}
		}
		if math.IsInf(step, 1) {
			// Unbounded demands with no finite resource: nothing to do.
			break
		}
		if step < 0 {
			step = 0
		}
		// Apply the increment.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			alloc[i] += units.Bandwidth(math.Round(step))
			for _, r := range f.Resources {
				used[r] += step
			}
		}
		// Freeze demand-satisfied flows and flows on saturated resources.
		progressed := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if f.Demand > 0 && alloc[i] >= f.Demand {
				alloc[i] = f.Demand
				frozen[i] = true
				progressed = true
				continue
			}
			for _, r := range f.Resources {
				if used[r] >= float64(resources[r])-1 {
					frozen[i] = true
					progressed = true
					break
				}
			}
		}
		if !progressed {
			// Numerical corner: freeze everything rather than loop.
			for i := range frozen {
				frozen[i] = true
			}
		}
	}
	return alloc
}

// epoch is the management period: the manager re-reads demands and
// re-allocates every 20 us.
const epoch = 20 * units.Microsecond

// Manager is the runtime: it owns resources and registrations and
// re-allocates every epoch.
type Manager struct {
	eng *sim.Engine

	resourceIdx map[string]int
	resources   []units.Bandwidth
	names       []string

	regs    []registration
	running bool
	stopped bool
}

type registration struct {
	flow      *traffic.Flow
	resources []int
}

// New builds a manager re-allocating every epoch.
func New(eng *sim.Engine) *Manager {
	if eng == nil {
		panic("trafficmgr: nil engine")
	}
	return &Manager{eng: eng, resourceIdx: make(map[string]int)}
}

// AddResource declares a shared resource (a link direction) and its
// capacity. Re-declaring a name updates its capacity.
func (m *Manager) AddResource(name string, capacity units.Bandwidth) {
	if idx, ok := m.resourceIdx[name]; ok {
		m.resources[idx] = capacity
		return
	}
	m.resourceIdx[name] = len(m.resources)
	m.resources = append(m.resources, capacity)
	m.names = append(m.names, name)
}

// Register attaches a flow to the manager across the named resources.
// Unknown resource names are an error.
func (m *Manager) Register(f *traffic.Flow, resources ...string) error {
	if f == nil {
		return fmt.Errorf("trafficmgr: nil flow")
	}
	if len(resources) == 0 {
		return fmt.Errorf("trafficmgr: flow %s registered with no resources", f.Name())
	}
	var idx []int
	for _, name := range resources {
		i, ok := m.resourceIdx[name]
		if !ok {
			return fmt.Errorf("trafficmgr: flow %s references unknown resource %q", f.Name(), name)
		}
		idx = append(idx, i)
	}
	m.regs = append(m.regs, registration{flow: f, resources: idx})
	return nil
}

// Start begins the allocation loop. The first allocation is applied
// immediately.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	var tick func()
	tick = func() {
		if m.stopped {
			return
		}
		m.Apply()
		m.eng.After(epoch, tick)
	}
	tick()
}

// Stop halts the allocation loop and removes every imposed rate limit.
func (m *Manager) Stop() {
	m.stopped = true
	for _, r := range m.regs {
		r.flow.SetRateLimit(0)
	}
}

// Apply computes one allocation from current demands and enforces it.
func (m *Manager) Apply() {
	allocs := m.allocate()
	for i, r := range m.regs {
		r.flow.SetRateLimit(allocs[i])
	}
}

// Allocations reports the most recent per-flow allocation, keyed by flow
// name (recomputed from current demands).
func (m *Manager) Allocations() map[string]units.Bandwidth {
	allocs := m.allocate()
	out := make(map[string]units.Bandwidth, len(m.regs))
	for i, r := range m.regs {
		out[r.flow.Name()] = allocs[i]
	}
	return out
}

// Resources reports the declared resource names, sorted.
func (m *Manager) Resources() []string {
	names := append([]string(nil), m.names...)
	sort.Strings(names)
	return names
}

func (m *Manager) allocate() []units.Bandwidth {
	specs := make([]FlowSpec, len(m.regs))
	for i, r := range m.regs {
		specs[i] = FlowSpec{Demand: r.flow.Demand(), Resources: r.resources}
	}
	return Allocate(specs, m.resources)
}
