// Package metrics is the windowed time-series layer of the chiplet
// network's observability stack: where internal/trace answers "what
// happened to one transaction" after a run and internal/profile counts
// "which flow moved the bytes", this package answers "what is each link,
// queue and token pool doing right now, per harvest window" — the
// continuously-sampled, perf-like visibility the paper's research agenda
// calls for, and the shape of Figure 5 itself (bandwidth sampled in
// 100 ms harvest windows over a 6 s trace; 100 us of simulated time under
// the 1:1000 substitution).
//
// The design is pull-based: components are never touched on the
// per-message hot path. An instrument is a Desc plus a Probe, a value
// whose Sample reads a counter the simulation already maintains (channel
// busy time, queue depth, token occupancy, cumulative queue-wait totals).
// A component viewed through a named probe type is its own probe, so
// registering one allocates nothing; ProbeFunc adapts a plain function.
// A single harvest event on the internal/sim wheel samples every probe
// once per window into ring-buffered series. The costs are therefore:
//
//   - zero when no registry is attached or Start was never called: there
//     is no hook site, no nil check, nothing on any event path;
//   - one event per window when harvesting: O(instruments) probe calls
//     amortized over the tens of thousands of simulation events a window
//     contains (ci.sh gates the enabled overhead at <5% and the harvest
//     tick at 0 allocs/op);
//   - no steady-state allocations: the series ring starts at 8 windows
//     and doubles while it fills, up to MaxWindows; from then on it is
//     reused, the oldest windows are overwritten and DroppedWindows
//     counts them. A cell that harvests 15 windows holds 16, not
//     MaxWindows.
//
// Harvest events ride the engine calendar but never touch the RNG and
// never mutate component state, so enabling metrics cannot change a
// single transaction completion time — the same determinism contract the
// flight recorder keeps, tested by the harness determinism guards.
//
// On top of the raw series sits the bottleneck attributor: per window it
// ranks every tracked resource by the congestion time it accumulated
// (queue waits on channels, grant waits on token pools, plus refusal
// counts from bounded queues), naming where the contention point lives —
// see Bottlenecks and the reports in report.go.
package metrics

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/units"
)

// Kind distinguishes instrument sampling semantics.
type Kind uint8

const (
	// KindCounter samples a cumulative, monotonically non-decreasing
	// value; the series stores the per-window delta.
	KindCounter Kind = iota
	// KindGauge samples an instantaneous value at each harvest tick; the
	// series stores the sample itself.
	KindGauge
)

var kindNames = [...]string{"counter", "gauge"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindFromString inverts Kind.String.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Canonical metric names. The bottleneck attributor and the reports key
// on these, so the wiring layer (core.AttachMetrics) and any external
// consumer agree on what a resource's congestion signals are called.
const (
	// MetricBytes is a channel's cumulative accepted bytes (counter).
	MetricBytes = "bytes"
	// MetricMsgs is a channel's cumulative accepted messages (counter).
	MetricMsgs = "msgs"
	// MetricBusy is a serializer's cumulative busy time in ps (counter);
	// the per-window delta over the window length is its utilization.
	MetricBusy = "busy_ps"
	// MetricWait is cumulative congestion time in ps (counter): serializer
	// queue waits for channels, grant waits for token pools. The
	// bottleneck attributor ranks resources by this metric's delta.
	MetricWait = "wait_ps"
	// MetricRefused is a bounded queue's cumulative refused sends
	// (counter) — backpressure events.
	MetricRefused = "refused"
	// MetricDepth is the instantaneous queue depth (gauge): messages
	// queued in a channel, waiters blocked on a pool.
	MetricDepth = "depth"
	// MetricInUse is a token pool's instantaneous held tokens (gauge).
	MetricInUse = "inuse"
	// MetricService is a device's cumulative service time in ps (counter):
	// DRAM array occupancy, CXL module internal latency.
	MetricService = "service_ps"
)

// Desc identifies one instrument: a (resource, metric) pair with its
// subsystem family and unit.
type Desc struct {
	// Resource names the instrumented component ("umc0/rd", "ccd2/gmi/out",
	// "core5/mshr"), matching the component's telemetry name.
	Resource string
	// Metric is the canonical measurement name (MetricBytes, MetricWait, ...).
	Metric string
	// Family is the subsystem the resource belongs to: "link" (GMI and
	// intra-CC fabric), "mesh" (the I/O die NoC), "memsys" (UMCs and CXL
	// modules), "pool" (hardware token pools).
	Family string
	// Unit is the sample unit ("bytes", "ps", "msgs", "tokens").
	Unit string
	// Kind is the sampling semantic.
	Kind Kind
}

// Name renders the instrument's full name.
func (d Desc) Name() string { return d.Resource + "/" + d.Metric }

// ID indexes a registered instrument.
type ID int32

// Probe reads one instrument's current value: the cumulative total for a
// counter, the instantaneous level for a gauge.
type Probe interface {
	Sample() float64
}

// ProbeFunc adapts a function to a Probe.
type ProbeFunc func() float64

// Sample calls f.
func (f ProbeFunc) Sample() float64 { return f() }

// Config sizes a Registry.
type Config struct {
	// Window is the harvest interval in simulated time. The default,
	// 100 us, is the simulated counterpart of the paper's 100 ms Figure 5
	// harvest window under the 1:1000 time substitution.
	Window units.Time
}

// DefaultWindow is the default harvest interval: the paper's 100 ms
// Figure 5 window at the simulation's 1:1000 time scale.
const DefaultWindow = 100 * units.Microsecond

// MaxWindows bounds the retained windows per instrument. The ring grows
// to MaxWindows as windows arrive; once it holds MaxWindows windows the
// oldest are overwritten and DroppedWindows counts them. Series exports
// cover the live windows.
const MaxWindows = 4096

// firstSlots is the ring's initial window count. Start pays only for
// these windows of every instrument; harvest doubles the ring as windows
// arrive, so a cell that harvests tens of windows grows it a few times
// and holds less than twice what it recorded, never MaxWindows up front.
const firstSlots = 8

// Registry holds named instruments and harvests them into ring-buffered
// series on a fixed sim-time window. Zero value is not usable; use New.
// A Registry is engine-local and single-goroutine, like the tracer: one
// per experiment cell, never shared. It runs once: Start, then Stop.
type Registry struct {
	window units.Time

	descs  []Desc
	probes []Probe
	prev   []float64 // last cumulative sample per instrument (counters)

	// series is the window-major sample ring: window w's sample of
	// instrument i lives at series[(w%slots)*len(probes)+i], where slots
	// grows from firstSlots to MaxWindows before the ring first wraps, so
	// no window ever moves slot. Window w spans
	// [start + w*window, start + (w+1)*window).
	series []float64
	slots  int
	start  units.Time
	total  int // windows harvested ever

	eng       *sim.Engine // set by Start
	running   bool
	harvestFn func() // pre-bound so rescheduling never allocates
	onHarvest []func()
}

// New builds a registry with the given window.
func New(cfg Config) *Registry {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	r := &Registry{window: cfg.Window}
	r.harvestFn = r.harvest
	return r
}

// Window reports the harvest interval.
func (r *Registry) Window() units.Time { return r.window }

// Reserve grows the instrument tables to take n more registrations
// without reallocating, so an attach that knows its instrument count
// sizes them once.
func (r *Registry) Reserve(n int) {
	r.descs = slices.Grow(r.descs, n)
	r.probes = slices.Grow(r.probes, n)
}

// Counter registers a cumulative instrument. probe must report a
// monotonically non-decreasing value; the series records per-window
// deltas. Register before Start; registering later panics.
func (r *Registry) Counter(resource, metric, family, unit string, probe Probe) ID {
	return r.register(Desc{Resource: resource, Metric: metric, Family: family, Unit: unit, Kind: KindCounter}, probe)
}

// Gauge registers an instantaneous instrument sampled at each harvest
// tick. Register before Start; registering later panics.
func (r *Registry) Gauge(resource, metric, family, unit string, probe Probe) ID {
	return r.register(Desc{Resource: resource, Metric: metric, Family: family, Unit: unit, Kind: KindGauge}, probe)
}

func (r *Registry) register(d Desc, probe Probe) ID {
	if r.eng != nil {
		panic(fmt.Sprintf("metrics: registering %s after Start", d.Name()))
	}
	if probe == nil {
		panic(fmt.Sprintf("metrics: nil probe for %s", d.Name()))
	}
	r.descs = append(r.descs, d)
	r.probes = append(r.probes, probe)
	return ID(len(r.descs) - 1)
}

// Start allocates the series ring (8 windows; harvest grows it to
// MaxWindows), primes the counter baselines and schedules the first
// harvest one window from now on eng's calendar. Windows are counted from
// the Start time: window w covers [start + w*Window, start + (w+1)*Window).
// A registry starts once; a second Start, even after Stop, panics.
func (r *Registry) Start(eng *sim.Engine) {
	if eng == nil {
		panic("metrics: nil engine")
	}
	if r.eng != nil {
		panic("metrics: Start called twice; a registry runs once")
	}
	r.eng = eng
	r.prev = make([]float64, len(r.probes))
	for i, p := range r.probes {
		r.prev[i] = p.Sample()
	}
	r.resize(firstSlots)
	r.start = eng.Now()
	r.running = true
	eng.After(r.window, r.harvestFn)
}

// Stop ends harvesting after the current window; the recorded series
// stay available. The already-scheduled harvest event fires once more as
// a no-op and schedules no other.
func (r *Registry) Stop() { r.running = false }

// resize reallocates the ring at the given window count, keeping every
// recorded window in its slot. Only valid before the ring first wraps.
func (r *Registry) resize(slots int) {
	series := make([]float64, slots*len(r.probes))
	copy(series, r.series)
	r.series, r.slots = series, slots
}

// harvest is the per-window tick: sample every probe into the ring and
// reschedule. Once the ring has grown to MaxWindows it must not allocate
// — ci.sh gates BenchmarkMetricsHarvest at 0 B/op — and it must never
// touch the engine RNG or any component state, so metrics cannot
// perturb simulation results.
func (r *Registry) harvest() {
	if !r.running {
		return
	}
	if r.total == r.slots && r.slots < MaxWindows {
		// Full but not yet wrapped: window w is still at slot w, so the
		// doubled ring keeps every window where w%slots puts it.
		r.resize(min(2*r.slots, MaxWindows))
	}
	slot := r.total % r.slots
	row := r.series[slot*len(r.probes) : (slot+1)*len(r.probes)]
	for i, p := range r.probes {
		v := p.Sample()
		if r.descs[i].Kind == KindCounter {
			row[i] = v - r.prev[i]
			r.prev[i] = v
		} else {
			row[i] = v
		}
	}
	r.total++
	for _, fn := range r.onHarvest {
		fn()
	}
	r.eng.After(r.window, r.harvestFn)
}

// OnHarvest appends an observer invoked after each window is recorded —
// the hook anomaly detectors and live renderers attach. Observers run in
// attach order (so a detector attached before a renderer has its
// incidents visible when the renderer reads the window) and may
// allocate; with no observers the harvest tick pays only an empty range
// loop.
func (r *Registry) OnHarvest(fn func()) { r.onHarvest = append(r.onHarvest, fn) }

// NumInstruments reports the registered instrument count.
func (r *Registry) NumInstruments() int { return len(r.descs) }

// Desc reports instrument i's descriptor.
func (r *Registry) Desc(i int) Desc { return r.descs[i] }

// Lookup finds an instrument by resource and metric name, reporting ok.
func (r *Registry) Lookup(resource, metric string) (ID, bool) {
	for i, d := range r.descs {
		if d.Resource == resource && d.Metric == metric {
			return ID(i), true
		}
	}
	return 0, false
}

// Total reports the windows harvested since construction.
func (r *Registry) Total() int { return r.total }

// FirstWindow reports the oldest window index still in the ring; valid
// window indices are [FirstWindow, Total).
func (r *Registry) FirstWindow() int { return max(0, r.total-MaxWindows) }

// DroppedWindows reports windows overwritten after the ring filled.
func (r *Registry) DroppedWindows() int { return r.FirstWindow() }

// WindowStart reports the start time of window w, which must be in
// [FirstWindow, Total).
func (r *Registry) WindowStart(w int) units.Time { return r.start + units.Time(w)*r.window }

// WindowEnd reports the end time of window w: every window spans exactly
// Window.
func (r *Registry) WindowEnd(w int) units.Time { return r.WindowStart(w) + r.window }

// Value reports instrument id's sample for window w: the per-window
// delta for counters, the end-of-window sample for gauges. w must be in
// [FirstWindow, Total).
func (r *Registry) Value(id ID, w int) float64 {
	return r.series[(w%r.slots)*len(r.probes)+int(id)]
}
