// Package metrics is the windowed time-series layer of the chiplet
// network's observability stack: where internal/trace answers "what
// happened to one transaction" after a run and internal/profile sketches
// "which flow moved the bytes", this package answers "what is each link,
// queue and token pool doing right now, per harvest window" — the
// continuously-sampled, perf-like visibility the paper's research agenda
// calls for, and the shape of Figure 5 itself (bandwidth sampled in
// 100 ms harvest windows over a 6 s trace; 100 us of simulated time under
// the 1:1000 substitution).
//
// The design is pull-based: components are never touched on the
// per-message hot path. Instruments are probes — closures bound at attach
// time that read counters the simulation already maintains (channel busy
// time, queue depth, token occupancy, cumulative queue-wait totals) — and
// a single harvest event on the internal/sim wheel samples every probe
// once per window into ring-buffered series. The costs are therefore:
//
//   - zero when no registry is attached or Start was never called: there
//     is no hook site, no nil check, nothing on any event path;
//   - one event per window when harvesting: O(instruments) probe calls
//     amortized over the tens of thousands of simulation events a window
//     contains (ci.sh gates the enabled overhead at <5% and the harvest
//     tick at 0 allocs/op);
//   - no steady-state allocations: the series ring starts at 128 windows
//     (or Cap, if smaller) and doubles while it fills, up to Cap; from
//     then on it is reused, the oldest windows are overwritten and
//     DroppedWindows counts them. A cell that harvests 15 windows holds
//     128, not Cap.
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

// Config sizes a Registry.
type Config struct {
	// Window is the harvest interval in simulated time. The default,
	// 100 us, is the simulated counterpart of the paper's 100 ms Figure 5
	// harvest window under the 1:1000 time substitution.
	Window units.Time
	// Cap bounds the retained windows per instrument (default 4096).
	// The ring grows to Cap as windows arrive; once it holds Cap windows
	// the oldest are overwritten and DroppedWindows counts them. Series
	// exports cover the live windows.
	Cap int
}

// DefaultWindow is the default harvest interval: the paper's 100 ms
// Figure 5 window at the simulation's 1:1000 time scale.
const DefaultWindow = 100 * units.Microsecond

// Registry holds named instruments and harvests them into ring-buffered
// series on a fixed sim-time window. Zero value is not usable; use New.
// A Registry is engine-local and single-goroutine, like the tracer: one
// per experiment cell, never shared.
type Registry struct {
	window units.Time
	cap    int

	descs  []Desc
	probes []func() float64
	prev   []float64 // last cumulative sample per instrument (counters)

	// series is the window-major sample ring: window w's sample of
	// instrument i lives at series[(w%slots)*len(probes)+i], where slots
	// = len(starts) grows from firstSlots to cap before the ring first
	// wraps, so no window ever moves slot. starts/ends mirror the ring
	// with the actual window bounds (a restart can produce one short
	// window, so the end is recorded rather than assumed).
	series  []float64
	starts  []units.Time
	ends    []units.Time
	total   int // windows harvested ever
	live    int // windows still in the ring (<= cap)
	dropped int

	eng       *sim.Engine
	running   bool
	started   bool
	pending   int        // scheduled-but-unfired harvest ticks (0 or 1)
	lastTick  units.Time // start of the currently-accumulating window
	harvestFn func()     // pre-bound so rescheduling never allocates
	onHarvest []func()
}

// firstSlots is the ring's initial window count: enough for a typical
// experiment cell, which harvests tens of windows, without paying for
// Cap windows of every instrument up front.
const firstSlots = 128

// New builds a registry with the given window and capacity.
func New(cfg Config) *Registry {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Cap <= 0 {
		cfg.Cap = 4096
	}
	r := &Registry{window: cfg.Window, cap: cfg.Cap}
	r.harvestFn = r.harvest
	return r
}

// Window reports the harvest interval.
func (r *Registry) Window() units.Time { return r.window }

// Counter registers a cumulative instrument. probe must report a
// monotonically non-decreasing value; the series records per-window
// deltas. Register before Start; registering later panics.
func (r *Registry) Counter(resource, metric, family, unit string, probe func() float64) ID {
	return r.register(Desc{Resource: resource, Metric: metric, Family: family, Unit: unit, Kind: KindCounter}, probe)
}

// Gauge registers an instantaneous instrument sampled at each harvest
// tick. Register before Start; registering later panics.
func (r *Registry) Gauge(resource, metric, family, unit string, probe func() float64) ID {
	return r.register(Desc{Resource: resource, Metric: metric, Family: family, Unit: unit, Kind: KindGauge}, probe)
}

func (r *Registry) register(d Desc, probe func() float64) ID {
	if r.started {
		panic(fmt.Sprintf("metrics: registering %s after Start", d.Name()))
	}
	if probe == nil {
		panic(fmt.Sprintf("metrics: nil probe for %s", d.Name()))
	}
	r.descs = append(r.descs, d)
	r.probes = append(r.probes, probe)
	return ID(len(r.descs) - 1)
}

// Start allocates the series ring (min(Cap, 128) windows; harvest grows
// it to Cap), primes the counter baselines and schedules the first
// harvest one window from now on eng's calendar.
// Windows are counted from the Start time: window w covers
// [start + w*Window, start + (w+1)*Window).
func (r *Registry) Start(eng *sim.Engine) {
	if eng == nil {
		panic("metrics: nil engine")
	}
	if r.running {
		panic("metrics: Start while running")
	}
	r.eng = eng
	if !r.started {
		r.started = true
		r.prev = make([]float64, len(r.probes))
		r.resize(min(r.cap, firstSlots))
	}
	for i, p := range r.probes {
		r.prev[i] = p()
	}
	r.lastTick = eng.Now()
	r.running = true
	// A tick left pending by a Stop resumes the chain instead of starting
	// a second one; its window is recorded with its actual (shorter)
	// bounds.
	if r.pending == 0 {
		r.schedule()
	}
}

func (r *Registry) schedule() {
	r.pending++
	r.eng.After(r.window, r.harvestFn)
}

// Stop ends harvesting after the current window; the recorded series
// stay available. The already-scheduled harvest event fires once more as
// a no-op. Restartable with Start (the series continue where they left
// off, with a gap in the window start times).
func (r *Registry) Stop() { r.running = false }

// Running reports whether harvest ticks are active.
func (r *Registry) Running() bool { return r.running }

// resize reallocates the ring at the given window count, keeping every
// recorded window in its slot. Only valid before the ring first wraps.
func (r *Registry) resize(slots int) {
	series := make([]float64, slots*len(r.probes))
	copy(series, r.series)
	starts := make([]units.Time, slots)
	copy(starts, r.starts)
	ends := make([]units.Time, slots)
	copy(ends, r.ends)
	r.series, r.starts, r.ends = series, starts, ends
}

// harvest is the per-window tick: sample every probe into the ring and
// reschedule. Once the ring has grown to Cap it must not allocate —
// ci.sh gates BenchmarkMetricsHarvest at 0 B/op — and it must never
// touch the engine RNG or any component state, so metrics cannot
// perturb simulation results.
func (r *Registry) harvest() {
	r.pending--
	if !r.running {
		return
	}
	slots := len(r.starts)
	if r.total == slots && slots < r.cap {
		// Full but not yet wrapped: window w is still at slot w, so the
		// doubled ring keeps every window where w%slots puts it.
		slots = min(2*slots, r.cap)
		r.resize(slots)
	}
	slot := r.total % slots
	r.starts[slot] = r.lastTick
	r.ends[slot] = r.eng.Now()
	r.lastTick = r.eng.Now()
	row := r.series[slot*len(r.probes) : (slot+1)*len(r.probes)]
	for i, p := range r.probes {
		v := p()
		if r.descs[i].Kind == KindCounter {
			row[i] = v - r.prev[i]
			r.prev[i] = v
		} else {
			row[i] = v
		}
	}
	r.total++
	if r.live < r.cap {
		r.live++
	} else {
		r.dropped++
	}
	for _, fn := range r.onHarvest {
		fn()
	}
	r.schedule()
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
func (r *Registry) FirstWindow() int { return r.total - r.live }

// DroppedWindows reports windows overwritten after the ring filled.
func (r *Registry) DroppedWindows() int { return r.dropped }

// WindowStart reports the start time of window w, which must be in
// [FirstWindow, Total).
func (r *Registry) WindowStart(w int) units.Time { return r.starts[w%len(r.starts)] }

// WindowEnd reports the end time of window w. All windows span exactly
// Window except, possibly, the first one after a Stop/Start restart.
func (r *Registry) WindowEnd(w int) units.Time { return r.ends[w%len(r.ends)] }

// Value reports instrument id's sample for window w: the per-window
// delta for counters, the end-of-window sample for gauges. w must be in
// [FirstWindow, Total).
func (r *Registry) Value(id ID, w int) float64 {
	return r.series[(w%len(r.starts))*len(r.probes)+int(id)]
}
