package traffic

import (
	"math"

	"repro/internal/core"
	"repro/internal/units"
)

// controller is the adaptive injection-window state machine behind the
// paper's §3.5 observations. Hardware senders size their in-flight request
// budget from demand and observed round-trip time: the budget ramps
// additively while the fabric looks uncongested, and under congestion it
// decays in proportion to how far it sits above the sender's demand
// target. Because the congestion signal (inflated completion latency) is
// shared by everyone on the link while the demand target is private, the
// time-averaged equilibrium puts every flow's window at the same multiple
// of its target — windows, and therefore bandwidth shares, settle
// proportional to demand. Consequences, all observed in the paper:
//
//   - a flow demanding more keeps a proportionally larger window, so a
//     shared FIFO link splits bandwidth by demand (Fig 4 cases 2 and 4:
//     the aggressive sender beats its equal share);
//   - equal demands converge to equal windows (Fig 4, case 3);
//   - when a competitor throttles, the spare bandwidth is harvested only
//     as fast as the additive ramp — about one window step per adaptation
//     epoch, reproducing the ~100 ms (IF) and ~500 ms (P link) delays of
//     Fig 5 at the harness's time scale;
//   - the EPYC 7302's intra-chiplet token regulator over-corrects, so its
//     profile marks the controller oscillatory and the window jitters,
//     reproducing Fig 5's "drastic variation" on that platform.
type controller struct {
	flow  *Flow
	epoch units.Time
	osc   bool // oscillatory regulator (EPYC 7302 intra-CC)
	step  int

	// Delay-based congestion detection: the sender cannot see the link —
	// routing is traffic-oblivious — so it infers congestion from its own
	// completion latencies.
	rttEWMA float64 // ns
	rttMin  float64 // ns
	samples uint64

	// decayDebt accumulates the fractional window decrement so that flows
	// whose window/target ratio differs by less than 1 still decay in
	// exact proportion (an integer floor would equalize them instead).
	decayDebt float64

	// Link-credit governor (Fig 5): the platform grants a sender rate
	// headroom gradually. rateCap is the current grant in bytes/s; while
	// the sender saturates it, it grows by rampBW per epoch — this slope
	// is what makes freed bandwidth take ~100 ms (IF) / ~500 ms (P link)
	// to harvest. When the sender stops saturating the grant, it decays
	// promptly to just above the achieved rate.
	rateCap    float64
	rampBW     float64
	epochBytes units.ByteSize
}

func newController(f *Flow) *controller {
	p := f.net.Profile()
	epoch := p.IFAdaptEpoch
	ramp := p.HarvestRampIF
	if f.cfg.Kind == core.DestCXL {
		epoch = p.PLinkAdaptEpoch
		ramp = p.HarvestRampPLink
	}
	if epoch <= 0 {
		epoch = 20 * units.Microsecond
	}
	if ramp <= 0 {
		ramp = units.GBps(0.3)
	}
	osc := p.OscillatoryIntraCC &&
		(f.cfg.Kind == core.DestLLCIntra || f.cfg.Kind == core.DestLLCInter)
	return &controller{
		flow: f, epoch: epoch, osc: osc, step: 1,
		rampBW: float64(ramp),
	}
}

// paceCap reports the governor's current rate grant; the flow paces at
// min(demand, paceCap). Zero means not yet initialized (no cap).
func (c *controller) paceCap() units.Bandwidth {
	return units.Bandwidth(c.rateCap)
}

// addBytes accounts one completed transfer toward this epoch's rate.
func (c *controller) addBytes(size units.ByteSize) { c.epochBytes += size }

func (c *controller) start() {
	c.flow.eng.After(c.epoch, c.tick)
}

// observe folds one completion latency into the RTT estimators.
func (c *controller) observe(lat units.Time) {
	ns := lat.Nanoseconds()
	c.samples++
	if c.samples == 1 {
		c.rttEWMA = ns
		c.rttMin = ns
		return
	}
	c.rttEWMA = 0.9*c.rttEWMA + 0.1*ns
	if ns < c.rttMin {
		c.rttMin = ns
	}
}

// congested reports the severe-congestion signal: the smoothed RTT sits
// 75% above the uncongested floor, i.e. queueing dominates propagation.
func (c *controller) congested() bool {
	return c.samples >= 8 && c.rttEWMA > c.rttMin*1.75
}

// targetWindow reports the demand-implied window: demand x base RTT /
// line, with 25% slack so pacing, not the window, sets the rate when the
// fabric is uncongested. Closed-loop flows target enough window to fill
// every source core's MLP.
func (c *controller) targetWindow() int {
	d := c.flow.demand
	if d <= 0 {
		return 64 * len(c.flow.cfg.Cores)
	}
	rtt := c.rttMin
	if rtt <= 0 {
		rtt = 200 // a-priori guess before samples arrive
	}
	w := float64(d) * 1e-9 * rtt / float64(units.CacheLine) * 1.25
	t := int(math.Ceil(w))
	if t < 1 {
		t = 1
	}
	return t
}

// tick runs one adaptation epoch.
func (c *controller) tick() {
	f := c.flow
	if f.stopped {
		return
	}
	w := f.window.Capacity()
	target := c.targetWindow()
	if c.congested() {
		// Decay in proportion to how far the window sits above the
		// demand target, accumulating fractions so small ratios still
		// decay proportionally. The shared congestion signal and private
		// targets make the equilibrium window ratio track the demand
		// ratio — sender-driven aggressive partitioning.
		c.decayDebt += float64(w) / float64(max(target, 4))
		if dec := int(c.decayDebt); dec > 0 {
			c.decayDebt -= float64(dec)
			w -= dec
		}
	} else if w < target {
		// Spare capacity: probe up additively. This slope is the Fig 5
		// harvest ramp.
		w += c.step
	} else if w > target {
		// Demand shrank (throttling): release the surplus promptly.
		dec := c.step
		if excess := (w - target) / 4; excess > dec {
			dec = excess
		}
		w -= dec
	}
	if c.osc {
		// The 7302's intra-CC regulator over-corrects: random kicks.
		w += f.eng.Rand().Intn(9) - 4
	}
	if w < 1 {
		w = 1
	}
	f.window.Resize(w)
	c.govern()
	// Age the RTT floor slowly so a stale minimum cannot wedge the
	// congestion signal on.
	if c.samples > 0 {
		c.rttMin += (c.rttEWMA - c.rttMin) * 0.001
	}
	f.eng.After(c.epoch, c.tick)
}

// govern runs one epoch of the link-credit governor.
func (c *controller) govern() {
	achieved := float64(units.Rate(c.epochBytes, c.epoch))
	c.epochBytes = 0
	if c.rateCap == 0 {
		// First epoch: start the grant at the requested rate so startup
		// is not artificially throttled; Fig 5 warmups converge it.
		c.rateCap = math.Max(achieved, float64(c.flow.demand))
		return
	}
	if achieved >= c.rateCap-c.rampBW {
		// The grant is saturated: widen it one ramp step. This is the
		// slow harvest slope of Fig 5.
		c.rateCap += c.rampBW
	} else if floor := achieved + c.rampBW; c.rateCap > floor {
		// The sender is not using its grant (competition or throttling):
		// the platform reclaims headroom promptly, down to one step above
		// the achieved rate.
		c.rateCap = floor
	}
	if c.osc {
		// The over-correcting regulator also wobbles the grant.
		kick := (c.flow.eng.Rand().Float64() - 0.5) * 3e9
		c.rateCap = math.Max(c.rateCap+kick, 1e9)
	}
}
