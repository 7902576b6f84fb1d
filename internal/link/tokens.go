package link

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// TokenPool models the compute chiplet's queueless traffic-control module
// (§3.2): a fixed budget of outstanding-request tokens with FIFO wakeup.
// Requests that find no token wait; the wait duration is the queueing
// delay the paper reports as "Max CCX Q" / "Max CCD Q" in Table 2.
//
// A TokenPool is also the injection window of a flow: the adaptive
// controllers in internal/core resize pools to model the slow bandwidth
// harvesting of Fig 5.
type TokenPool struct {
	eng      *sim.Engine
	name     string
	capacity int
	inUse    int
	// waiters[whead:] are the blocked acquirers in FIFO order. Grants pop
	// by advancing whead; appends compact the consumed prefix away when
	// the slice is full.
	waiters []waiter
	whead   int
	// waitHist holds the waits of queued grants; immediate counts the
	// zero-wait grants not yet folded into it (see waits).
	waitHist  telemetry.Histogram
	immediate uint64
	maxWait   units.Time

	// tr is the flight recorder, nil unless SetTracer attached one; hop is
	// this pool's id in its registry.
	tr  *trace.Tracer
	hop trace.HopID
}

type waiter struct {
	since units.Time
	txn   uint64 // transaction the waiter belongs to (tracing only)
	fn    func()
}

// NewTokenPool builds a pool with the given capacity. Capacity must be
// positive.
func NewTokenPool(eng *sim.Engine, name string, capacity int) *TokenPool {
	p := new(TokenPool)
	p.Init(eng, name, capacity)
	return p
}

// Init makes p a fresh pool in place, as NewTokenPool would build it:
// platforms allocate their pools in one slab and initialize each slot.
func (p *TokenPool) Init(eng *sim.Engine, name string, capacity int) {
	if eng == nil {
		panic("link: nil engine")
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("link: %s: non-positive token capacity", name))
	}
	*p = TokenPool{eng: eng, name: name, capacity: capacity}
}

// Name reports the pool's telemetry name.
func (p *TokenPool) Name() string { return p.name }

// SetTracer attaches the flight recorder, registering this pool as a hop
// named after it. Attach at most once per tracer, before running traffic;
// nil detaches.
func (p *TokenPool) SetTracer(tr *trace.Tracer) {
	p.tr = tr
	if tr != nil {
		p.hop = tr.RegisterHop(p.name, trace.KindPool)
	}
}

// Hop reports the pool's tracer hop id; zero until SetTracer runs.
func (p *TokenPool) Hop() trace.HopID {
	return p.hop
}

// Capacity reports the configured token budget.
func (p *TokenPool) Capacity() int { return p.capacity }

// InUse reports tokens currently held.
func (p *TokenPool) InUse() int { return p.inUse }

// Waiting reports acquirers currently blocked.
func (p *TokenPool) Waiting() int { return len(p.waiters) - p.whead }

// free reports grantable tokens. It can be negative transiently after a
// shrink, which simply blocks grants until holders drain.
func (p *TokenPool) free() int { return p.capacity - p.inUse }

// Acquire grants a token to fn: immediately when one is free and nobody is
// queued ahead, otherwise when a holder releases (FIFO). Wait times are
// recorded; an immediate grant counts as a zero wait.
func (p *TokenPool) Acquire(fn func()) {
	if p.TryAcquire() {
		fn()
		return
	}
	w := waiter{since: p.eng.Now(), fn: fn}
	if p.tr != nil {
		// Remember which transaction blocks here so the grant can restore
		// the tracer's active register and attribute the stall.
		w.txn = p.tr.Active()
	}
	if p.whead > 0 && len(p.waiters) == cap(p.waiters) {
		n := copy(p.waiters, p.waiters[p.whead:])
		clear(p.waiters[n:])
		p.waiters = p.waiters[:n]
		p.whead = 0
	}
	p.waiters = append(p.waiters, w)
}

// TryAcquire grants a token only if one is immediately free, reporting
// success. It never queues.
func (p *TokenPool) TryAcquire() bool {
	if p.free() > 0 && p.Waiting() == 0 {
		p.inUse++
		p.immediate++
		return true
	}
	return false
}

// Release returns one token, waking the oldest waiter if any. Releasing
// more tokens than were acquired is a programming error and panics.
func (p *TokenPool) Release() {
	if p.inUse <= 0 {
		panic(fmt.Sprintf("link: %s: Release without matching Acquire", p.name))
	}
	p.inUse--
	p.wake()
}

// Resize changes the pool capacity. Growing wakes waiters immediately;
// shrinking takes effect lazily as holders release (outstanding requests
// cannot be revoked, matching hardware credit schemes). Capacity is
// clamped to >= 1.
func (p *TokenPool) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	p.capacity = capacity
	p.wake()
}

// wake grants free tokens to waiters in FIFO order.
func (p *TokenPool) wake() {
	for p.free() > 0 && p.Waiting() > 0 {
		w := p.waiters[p.whead]
		p.waiters[p.whead] = waiter{}
		p.whead++
		if p.whead == len(p.waiters) {
			p.waiters = p.waiters[:0]
			p.whead = 0
		}
		p.inUse++
		now := p.eng.Now()
		wait := now - w.since
		p.waitHist.Record(wait)
		if wait > p.maxWait {
			p.maxWait = wait
		}
		if p.tr != nil {
			p.tr.Wait(p.hop, w.txn, w.since, now)
		}
		w.fn()
	}
}

// MaxWait reports the longest token wait observed — the Table 2 queueing
// figure.
func (p *TokenPool) MaxWait() units.Time { return p.maxWait }

// WaitTotal reports the cumulative token-wait time across all grants
// since the last stats reset — the pool's congestion-time signal for the
// windowed bottleneck attributor. Immediate grants contribute zero.
func (p *TokenPool) WaitTotal() units.Time { return p.waitHist.Sum() }

// Grants reports the number of tokens granted (immediate or queued)
// since the last stats reset.
func (p *TokenPool) Grants() uint64 { return p.waitHist.Count() + p.immediate }

// MeanWait reports the average token wait across all acquisitions.
func (p *TokenPool) MeanWait() units.Time { return p.waits().Mean() }

// WaitPercentile reports the given percentile of token waits (immediate
// grants count as zero-wait acquisitions).
func (p *TokenPool) WaitPercentile(pct float64) units.Time {
	return p.waits().Percentile(pct)
}

// waits folds the pending immediate grants into the wait histogram as
// zero waits and returns it: the histogram every grant would have built,
// at one bump per immediate grant instead of one Record.
func (p *TokenPool) waits() *telemetry.Histogram {
	p.waitHist.RecordN(0, p.immediate)
	p.immediate = 0
	return &p.waitHist
}

// ResetStats clears the wait statistics.
func (p *TokenPool) ResetStats() {
	p.waitHist.Reset()
	p.immediate = 0
	p.maxWait = 0
}
