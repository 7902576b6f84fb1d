// Package traffic implements the micro-benchmark utility of the paper's
// §3.1: workload generators that issue configurable data flows across the
// chiplet network. It provides paced (NOP-rate-controlled) and closed-loop
// streams from arbitrary core sets to memory and device domains, the
// pointer-chase workload behind Table 2, and the adaptive injection-window
// controller whose slow ramp reproduces the bandwidth-harvesting delays of
// Figure 5.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

// FlowConfig describes one generated data flow.
type FlowConfig struct {
	// Name appears in telemetry.
	Name string

	// Cores are the issuing cores; accesses round-robin across them.
	Cores []topology.CoreID

	// Op is the operation every access performs.
	Op txn.Op

	// Kind selects the destination domain; UMCs/Modules/DstCCD narrow it.
	Kind    core.DestKind
	UMCs    []int // DestDRAM: interleave set (e.g. topology.Profile.UMCSet)
	Modules []int // DestCXL: interleave set over modules
	DstCCD  int   // DestLLCInter: target chiplet

	// Demand is the requested bandwidth, enforced by pacing the issue
	// stream (the simulated analogue of the paper's NOP-instruction rate
	// control). Zero means closed-loop: issue as fast as the windows
	// allow ("as many memory accesses as possible", Table 3).
	Demand units.Bandwidth

	// Window bounds the flow's in-flight transactions on top of the
	// hardware pools. Zero means no flow-level window.
	Window int

	// Adaptive enables the injection-window controller (§3.5): the
	// window ramps additively toward the demand target and decays under
	// congestion. Requires Window > 0 (the initial window).
	Adaptive bool

	// Jitter randomizes inter-issue gaps exponentially around the paced
	// mean, giving the latency-load curves of Fig 3 their M/D/1 knee.
	Jitter bool

	// LoopsPerCore bounds the closed-loop chains per core. The default is
	// the per-core hardware window for the flow's operation, so closed
	// loops saturate the window without queueing artificial extra
	// requests behind it (which would double the measured latency).
	LoopsPerCore int

	// MaxPending bounds issued-but-incomplete transactions per flow in
	// open-loop mode; beyond it the generator skips issues, modelling a
	// stalled core pipeline. Default: 4x the window, or 512.
	MaxPending int

	// Observer, when set, sees every completed transaction — the hook
	// profilers and traffic-matrix collectors attach to.
	Observer func(*txn.Transaction)
}

// Flow is a running data flow.
type Flow struct {
	net *core.Network
	cfg FlowConfig

	// eng is the network's engine: the flow's pacing events, RNG draws and
	// controller epochs run on it.
	eng *sim.Engine

	window *link.TokenPool // nil when cfg.Window == 0
	ctrl   *controller     // nil unless adaptive

	umcIv    *memsys.Interleaver
	modIv    *memsys.Interleaver
	nextCore int

	demand    units.Bandwidth
	rateLimit units.Bandwidth // externally imposed (traffic manager); 0 = none
	stopped   bool
	inFlight  int

	// Pre-bound hot-path continuations and the reusable extra-pool slice:
	// issuing a transaction must not allocate, so the per-issue closures
	// are built once here (and per chain in loopChain).
	extraSlice []*link.TokenPool
	pacedFn    func()
	completeFn func(*txn.Transaction)

	hist   telemetry.Histogram
	meter  telemetry.Meter
	series *telemetry.TimeSeries
}

// NewFlow validates the configuration and builds a flow attached to the
// network. Start must be called to begin issuing.
func NewFlow(net *core.Network, cfg FlowConfig) (*Flow, error) {
	if len(cfg.Cores) == 0 {
		return nil, fmt.Errorf("traffic: flow %q has no source cores", cfg.Name)
	}
	switch cfg.Kind {
	case core.DestDRAM:
		if len(cfg.UMCs) == 0 {
			return nil, fmt.Errorf("traffic: flow %q targets DRAM with no channels", cfg.Name)
		}
	case core.DestCXL:
		if len(cfg.Modules) == 0 {
			return nil, fmt.Errorf("traffic: flow %q targets CXL with no modules", cfg.Name)
		}
		if net.Profile().CXLModules == 0 {
			return nil, fmt.Errorf("traffic: flow %q targets CXL on %s which has none", cfg.Name, net.Profile().Name)
		}
	case core.DestLLCIntra:
	case core.DestLLCInter:
		if cfg.DstCCD < 0 || cfg.DstCCD >= net.Profile().CCDs {
			return nil, fmt.Errorf("traffic: flow %q inter-CC target ccd%d out of range", cfg.Name, cfg.DstCCD)
		}
	default:
		return nil, fmt.Errorf("traffic: flow %q has unknown destination kind %d", cfg.Name, int(cfg.Kind))
	}
	if cfg.Adaptive && cfg.Window <= 0 {
		return nil, fmt.Errorf("traffic: flow %q is adaptive but has no initial window", cfg.Name)
	}
	if cfg.LoopsPerCore <= 0 {
		cfg.LoopsPerCore = net.WindowFor(cfg.Op, cfg.Kind)
	}
	if cfg.MaxPending <= 0 {
		if cfg.Window > 0 {
			cfg.MaxPending = 4 * cfg.Window
		} else {
			cfg.MaxPending = 512
		}
	}
	eng := net.Engine()
	f := &Flow{net: net, cfg: cfg, eng: eng, demand: cfg.Demand}
	if cfg.Window > 0 {
		f.window = link.NewTokenPool(eng, cfg.Name+"/window", cfg.Window)
		f.extraSlice = []*link.TokenPool{f.window}
	}
	f.pacedFn = f.pacedIssue
	f.completeFn = f.complete
	if len(cfg.UMCs) > 0 {
		f.umcIv = memsys.NewInterleaver(cfg.UMCs)
	}
	if len(cfg.Modules) > 0 {
		f.modIv = memsys.NewInterleaver(cfg.Modules)
	}
	if cfg.Adaptive {
		f.ctrl = newController(f)
	}
	return f, nil
}

// MustFlow is NewFlow for static configurations known to be valid; it
// panics on error.
func MustFlow(net *core.Network, cfg FlowConfig) *Flow {
	f, err := NewFlow(net, cfg)
	if err != nil {
		panic(err.Error())
	}
	return f
}

// Name reports the flow's configured name.
func (f *Flow) Name() string { return f.cfg.Name }

// Latency reports the flow's completion-latency histogram.
func (f *Flow) Latency() *telemetry.Histogram { return &f.hist }

// Meter reports the flow's byte meter.
func (f *Flow) Meter() *telemetry.Meter { return &f.meter }

// Window reports the flow-level injection window pool, nil if unbounded.
func (f *Flow) Window() *link.TokenPool { return f.window }

// AttachSeries records the flow's completions into a bandwidth time
// series (Fig 5 traces).
func (f *Flow) AttachSeries(ts *telemetry.TimeSeries) { f.series = ts }

// Demand reports the current requested bandwidth (0 = closed loop).
func (f *Flow) Demand() units.Bandwidth { return f.demand }

// SetDemand re-paces the flow mid-run — the Fig 5 throttling knob.
func (f *Flow) SetDemand(bw units.Bandwidth) { f.demand = bw }

// SetRateLimit imposes an external pacing ceiling on the flow without
// changing its demand — the enforcement hook a global traffic manager
// (Implication #4) uses. Zero removes the limit.
func (f *Flow) SetRateLimit(bw units.Bandwidth) { f.rateLimit = bw }

// RateLimit reports the imposed ceiling, zero when none.
func (f *Flow) RateLimit() units.Bandwidth { return f.rateLimit }

// Achieved reports the average bandwidth since the meter was last reset.
func (f *Flow) Achieved() units.Bandwidth { return f.meter.Rate(f.eng.Now()) }

// ResetStats clears the histogram and meter, e.g. after warmup.
func (f *Flow) ResetStats() {
	f.hist.Reset()
	f.meter.Reset(f.eng.Now())
}

// Start begins issuing. Open-loop (paced) flows schedule their first issue
// immediately; closed-loop flows spawn LoopsPerCore chains per core.
func (f *Flow) Start() {
	f.meter.Open(f.eng.Now())
	if f.ctrl != nil {
		f.ctrl.start()
	}
	if f.demand > 0 {
		f.scheduleNext(0)
		return
	}
	for _, c := range f.cfg.Cores {
		for i := 0; i < f.cfg.LoopsPerCore; i++ {
			ch := &loopChain{f: f, src: c}
			ch.done = ch.complete
			ch.issue()
		}
	}
}

// Stop halts issuing; in-flight transactions complete normally.
func (f *Flow) Stop() { f.stopped = true }

// access builds the next Access, rotating cores and interleave sets.
func (f *Flow) access(src topology.CoreID) core.Access {
	a := core.Access{Src: src, Op: f.cfg.Op, Kind: f.cfg.Kind, DstCCD: f.cfg.DstCCD}
	switch f.cfg.Kind {
	case core.DestDRAM:
		a.UMC = f.umcIv.Next()
	case core.DestCXL:
		a.Module = f.modIv.Next()
	}
	return a
}

// extraPools reports the flow-level window to acquire before the hardware
// pools; nil when the flow is unwindowed.
func (f *Flow) extraPools() []*link.TokenPool { return f.extraSlice }

// complete records one finished transaction.
func (f *Flow) complete(t *txn.Transaction) {
	f.inFlight--
	lat := t.Latency()
	f.hist.Record(lat)
	f.meter.Record(t.Size)
	if f.series != nil {
		f.series.Record(t.Completed, t.Size)
	}
	if f.ctrl != nil {
		f.ctrl.observe(lat)
		f.ctrl.addBytes(t.Size)
	}
	if f.cfg.Observer != nil {
		f.cfg.Observer(t)
	}
}

// paceRate reports the effective paced rate: the configured demand,
// clamped by the adaptive link-credit grant when the controller runs, and
// by any externally imposed rate limit.
func (f *Flow) paceRate() units.Bandwidth {
	d := f.demand
	if f.ctrl != nil {
		if cap := f.ctrl.paceCap(); cap > 0 && cap < d {
			d = cap
		}
	}
	if f.rateLimit > 0 && f.rateLimit < d {
		d = f.rateLimit
	}
	return d
}

// loopChain is one closed-loop chain on a fixed source core: each
// completion immediately issues the next access through a continuation
// bound once at Start, so steady-state closed-loop traffic allocates
// nothing per transaction.
type loopChain struct {
	f    *Flow
	src  topology.CoreID
	done func(*txn.Transaction)
}

func (c *loopChain) complete(t *txn.Transaction) {
	c.f.complete(t)
	c.issue()
}

func (c *loopChain) issue() {
	if c.f.stopped {
		return
	}
	c.f.inFlight++
	c.f.net.Issue(c.f.access(c.src), c.f.extraPools(), c.done)
}

// pendingLimit reports the stalled-pipeline bound: windowed flows track
// the live window capacity (the controller resizes it), unwindowed flows
// use the static MaxPending.
func (f *Flow) pendingLimit() int {
	if f.window != nil {
		if dyn := 2 * f.window.Capacity(); dyn > f.cfg.MaxPending {
			return dyn
		}
	}
	return f.cfg.MaxPending
}

// scheduleNext arms the next paced issue after d.
func (f *Flow) scheduleNext(d units.Time) {
	f.eng.After(d, f.pacedFn)
}

// pacedIssue issues one access (unless the pipeline is stalled) and
// re-arms the pacer at the current demand.
func (f *Flow) pacedIssue() {
	if f.stopped {
		return
	}
	if f.demand <= 0 {
		// Throttled to zero: poll until demand returns.
		f.scheduleNext(units.Microsecond)
		return
	}
	if f.inFlight < f.pendingLimit() {
		src := f.cfg.Cores[f.nextCore]
		f.nextCore = (f.nextCore + 1) % len(f.cfg.Cores)
		f.inFlight++
		f.net.Issue(f.access(src), f.extraPools(), f.completeFn)
	}
	gap := units.Interval(units.CacheLine, f.paceRate())
	if f.cfg.Jitter {
		gap = units.Time(math.Round(float64(gap) * f.eng.Rand().ExpFloat64()))
		if gap < units.Picosecond {
			gap = units.Picosecond
		}
	}
	f.scheduleNext(gap)
}
