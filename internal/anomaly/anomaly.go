// Package anomaly is the online change-point layer of the observability
// stack: where internal/metrics records what every resource did per
// harvest window, this package watches those windows as they are recorded
// and flags congestion onset the moment it happens — the live view of the
// paper's harvesting story (Figure 5's windowed utilization, the §2.2
// NUMA-spillover scenarios), instead of a post-mortem report.
//
// A Monitor attaches to a metrics.Registry via OnHarvest and runs two
// streaming detectors per watched instrument on each new window:
//
//   - an EWMA band: exponentially-weighted mean and variance of the
//     instrument's normalized rate; a sample above mean + 6·sigma (and
//     above the absolute MinRate floor) is anomalous. The baselines are
//     zero-primed, so a resource that is congested from the first
//     harvested window fires at that window — congestion present at
//     measurement start is itself an onset.
//   - a Page–Hinkley change-point test: cumulative deviation from the
//     running mean minus a drift allowance; when the deviation range
//     exceeds a threshold, a slow ramp that never leaves the adapting
//     EWMA band is still flagged.
//
// While an incident is open its instrument's baselines are frozen —
// anomalous samples must not pollute the estimate of normal — and the
// incident clears only after two consecutive windows back inside the
// band (or under the floor). Incidents carry their onset/clear windows,
// severity, and the bottleneck ranking of the onset window, so "umc0/rd
// saturated in window 41" arrives already attributed.
//
// Costs follow the registry's discipline: all detector state is
// preallocated at the first sweep (one flat array over the watch list),
// and the steady-state update sweep is allocation-free over the full
// instrument table — ci.sh gates BenchmarkDetectorSweep at 0 allocs/op.
// Incident onset and clear allocate (they append a record and rank the
// window's bottlenecks), which is fine: incidents are rare by
// construction. Like the registry, a monitor only reads — attaching one
// cannot change a single transaction completion time.
package anomaly

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/units"
)

// Config tunes a Monitor's detectors.
type Config struct {
	// MinRate is the absolute onset floor in normalized-rate units;
	// samples at or below it are never anomalous. The default 0.05 means
	// a resource must spend >5% of the window congested (0.05 average
	// waiters) before any incident can open.
	MinRate float64
}

// The detectors' fixed tuning.
const (
	// defaultMinRate is MinRate's default.
	defaultMinRate = 0.05
	// alpha is the EWMA smoothing factor.
	alpha = 0.25
	// bandK is the EWMA band half-width in sigmas.
	bandK = 6
	// phDelta is the Page–Hinkley drift allowance per window and
	// phLambda the alarm threshold on the cumulative deviation range,
	// both in normalized-rate units.
	phDelta  = 0.01
	phLambda = 0.5
	// clearWindows is how many consecutive in-band windows close an open
	// incident.
	clearWindows = 2
	// topK is how many ranked bottlenecks each incident links from its
	// onset window.
	topK = 5
	// maxIncidents bounds the recorded incident list; further onsets are
	// counted in IncidentsDropped but not recorded.
	maxIncidents = 1024
)

// Detector names an incident's triggering test.
const (
	DetectorEWMA = "ewma"
	DetectorPH   = "ph"
	DetectorBoth = "ewma+ph"
)

// Incident is one detected congestion episode on one instrument: open
// from its onset window until (and unless) it clears. Times are the
// onset/clear windows' [start, end) stamps from the registry, so an
// incident keys directly into the trace-metrics fusion path
// (trace.SpansInWindow).
type Incident struct {
	// ID numbers incidents in onset order, from 0, per monitor.
	ID int
	// Resource, Metric and Family identify the instrument (e.g.
	// "umc0/rd" + "wait_ps", family "memsys").
	Resource string
	Metric   string
	Family   string
	// Detector is which test fired at onset: "ewma", "ph" or "ewma+ph".
	Detector string
	// OnsetWindow is the window index where the anomaly was detected;
	// OnsetStart/OnsetEnd are that window's bounds.
	OnsetWindow int
	OnsetStart  units.Time
	OnsetEnd    units.Time
	// ClearWindow is the window index where the incident cleared (the
	// last of two consecutive calm windows), -1 while open. ClearEnd
	// is that window's end stamp.
	ClearWindow int
	ClearEnd    units.Time
	// Baseline is the frozen EWMA mean at onset; Severity the peak
	// normalized rate observed while open. Both are in normalized-rate
	// units (average concurrent waiters, for MetricWait).
	Baseline float64
	Severity float64
	// PeakWindow and PeakPS stamp *when* Severity last peaked: the window
	// index and that window's end stamp. Severity updates arrive
	// mid-incident as each window is harvested; the stamp keeps the
	// timing of the worst window, not just its magnitude.
	PeakWindow int
	PeakPS     units.Time
	// Bottlenecks is the attributor's ranking for the onset window — the
	// incident arrives naming where the congestion lives, not just which
	// instrument tripped.
	Bottlenecks []metrics.Bottleneck
}

// Open reports whether the incident has not yet cleared.
func (in Incident) Open() bool { return in.ClearWindow < 0 }

// detState is one watched instrument's streaming detector state.
type detState struct {
	id   metrics.ID
	desc metrics.Desc

	mean, variance float64 // EWMA estimates (zero-primed)

	// Page–Hinkley accumulators: running sum/count for the cumulative
	// mean, the PH statistic and its running minimum.
	phSum   float64
	phN     int
	ph      float64
	phMin   float64
	calmRun int // consecutive calm windows while an incident is open
	openIdx int // incidents index + 1 of the open incident, 0 when closed
}

// Monitor runs the detectors over a registry's harvest stream. Build one
// with Attach; like the registry it observes, a monitor is engine-local
// and single-goroutine.
type Monitor struct {
	reg     *metrics.Registry
	minRate float64

	states []detState // sized at the first sweep, then fixed

	incidents  []Incident
	dropped    int
	onIncident func(Incident)
}

// Attach builds a monitor over reg and installs its sweep on the
// registry's harvest hook. Attach before any other OnHarvest observer
// that wants to see fresh incidents (observers run in attach order), and
// before or after instrument registration — the watch list is built
// lazily at the first harvested window.
func Attach(reg *metrics.Registry, cfg Config) *Monitor {
	if reg == nil {
		panic("anomaly: nil registry")
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = defaultMinRate
	}
	m := &Monitor{reg: reg, minRate: cfg.MinRate}
	reg.OnHarvest(m.sweep)
	return m
}

// OnIncident installs an observer invoked at every incident transition:
// once at onset (Incident.Open() true) and once at clear. The incident
// value is a snapshot; the monitor keeps updating its own record's
// severity while open.
func (m *Monitor) OnIncident(fn func(Incident)) { m.onIncident = fn }

// build sizes the detector state table from the registry's instrument
// list — once, at the first harvested window, after which the sweep is
// allocation-free. The watch list is every MetricWait instrument: the
// congestion signal the bottleneck attributor ranks by, which every
// channel and pool registers as a counter.
func (m *Monitor) build() {
	n := 0
	for i := 0; i < m.reg.NumInstruments(); i++ {
		if m.reg.Desc(i).Metric == metrics.MetricWait {
			n++
		}
	}
	m.states = make([]detState, 0, n)
	for i := 0; i < m.reg.NumInstruments(); i++ {
		d := m.reg.Desc(i)
		if d.Metric == metrics.MetricWait {
			m.states = append(m.states, detState{id: metrics.ID(i), desc: d})
		}
	}
	m.incidents = make([]Incident, 0, maxIncidents)
}

// sweep processes the newest harvested window: one detector update per
// watched instrument. The steady-state path (no incident transitions)
// performs no allocations.
func (m *Monitor) sweep() {
	if m.states == nil {
		m.build()
	}
	w := m.reg.Total() - 1
	span := float64(m.reg.Window())
	for i := range m.states {
		m.update(&m.states[i], w, span)
	}
}

// update advances one instrument's detectors over window w. The
// per-window wait delta over the window span is the normalized rate: the
// average number of concurrent waiters.
func (m *Monitor) update(st *detState, w int, span float64) {
	x := m.reg.Value(st.id, w) / span

	if st.openIdx != 0 {
		// Baselines frozen while open: judge calm against the frozen
		// band, update severity, count down to clear.
		inc := &m.incidents[st.openIdx-1]
		if x > inc.Severity {
			inc.Severity = x
			inc.PeakWindow = w
			inc.PeakPS = m.reg.WindowEnd(w)
		}
		if x <= m.minRate || x <= st.mean+bandK*sigma(st.variance) {
			st.calmRun++
			if st.calmRun >= clearWindows {
				m.clear(st, w)
			}
		} else {
			st.calmRun = 0
		}
		return
	}

	// EWMA band test against the pre-update baseline.
	ewmaFired := x > m.minRate && x > st.mean+bandK*sigma(st.variance)

	// Page–Hinkley: cumulative upward deviation from the running mean.
	st.phSum += x
	st.phN++
	st.ph += x - st.phSum/float64(st.phN) - phDelta
	if st.ph < st.phMin {
		st.phMin = st.ph
	}
	phFired := x > m.minRate && st.ph-st.phMin > phLambda

	if ewmaFired || phFired {
		m.open(st, w, x, ewmaFired, phFired)
		return
	}

	// Calm: fold the sample into the EWMA estimates (zero-primed — the
	// first samples pull the baseline up from zero, which is what makes
	// congestion-at-start an onset at window FirstWindow).
	dev := x - st.mean
	st.mean += alpha * dev
	st.variance = (1 - alpha) * (st.variance + alpha*dev*dev)
}

// open records an incident onset at window w.
func (m *Monitor) open(st *detState, w int, x float64, ewmaFired, phFired bool) {
	if len(m.incidents) == cap(m.incidents) {
		m.dropped++
		return
	}
	det := DetectorEWMA
	switch {
	case ewmaFired && phFired:
		det = DetectorBoth
	case phFired:
		det = DetectorPH
	}
	m.incidents = append(m.incidents, Incident{
		ID:          len(m.incidents),
		Resource:    st.desc.Resource,
		Metric:      st.desc.Metric,
		Family:      st.desc.Family,
		Detector:    det,
		OnsetWindow: w,
		OnsetStart:  m.reg.WindowStart(w),
		OnsetEnd:    m.reg.WindowEnd(w),
		ClearWindow: -1,
		Baseline:    st.mean,
		Severity:    x,
		PeakWindow:  w,
		PeakPS:      m.reg.WindowEnd(w),
		Bottlenecks: metrics.Bottlenecks(m.reg, w, topK),
	})
	st.openIdx = len(m.incidents)
	st.calmRun = 0
	if m.onIncident != nil {
		m.onIncident(m.incidents[len(m.incidents)-1])
	}
}

// clear closes an instrument's open incident at window w and resets the
// Page–Hinkley accumulators so the next episode is judged fresh; the
// frozen EWMA baseline resumes adapting from its pre-onset estimate.
func (m *Monitor) clear(st *detState, w int) {
	inc := &m.incidents[st.openIdx-1]
	inc.ClearWindow = w
	inc.ClearEnd = m.reg.WindowEnd(w)
	st.openIdx = 0
	st.calmRun = 0
	st.phSum = 0
	st.phN = 0
	st.ph = 0
	st.phMin = 0
	if m.onIncident != nil {
		m.onIncident(*inc)
	}
}

func sigma(variance float64) float64 {
	if variance <= 0 {
		return 0
	}
	return math.Sqrt(variance)
}

// NumWatched reports how many instruments the monitor runs detectors on
// (0 before the first harvested window sizes the watch list).
func (m *Monitor) NumWatched() int { return len(m.states) }

// NumIncidents reports how many incidents are recorded.
func (m *Monitor) NumIncidents() int { return len(m.incidents) }

// Incidents reports a copy of every recorded incident, onset order.
func (m *Monitor) Incidents() []Incident {
	out := make([]Incident, len(m.incidents))
	copy(out, m.incidents)
	return out
}

// OpenIncidents reports copies of the incidents still open.
func (m *Monitor) OpenIncidents() []Incident {
	var out []Incident
	for _, in := range m.incidents {
		if in.Open() {
			out = append(out, in)
		}
	}
	return out
}

// IncidentsDropped reports onsets discarded after the first 1024.
func (m *Monitor) IncidentsDropped() int { return m.dropped }
