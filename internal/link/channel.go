// Package link models the physical and data-link layers of server chiplet
// networking: serialized directional channels with finite capacity and
// bounded queues (Infinity Fabric, GMI, UMC, NoC aggregate, P link), plus
// the token pools that implement the compute chiplet's queueless traffic
// control module.
//
// Two mechanisms in this package produce most of the paper's findings:
//
//   - A Channel serializes messages FIFO at a fixed byte rate with a
//     bounded queue. Senders that hit a full queue are refused and retry
//     at their own pace, so admission is proportional to arrival pressure —
//     this is exactly the "sender-driven aggressive bandwidth partitioning"
//     of §3.5: no intermediate point knows what a flow is or wants.
//   - A TokenPool caps outstanding requests per core complex or chiplet
//     (§3.2's phantom-queue-like structure); waiting for a token is the
//     "Max CCX Q"/"Max CCD Q" delay of Table 2.
package link

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// Channel is one direction of one interconnect link: a FIFO serializer
// with finite bandwidth, propagation latency, and a bounded queue.
type Channel struct {
	eng      *sim.Engine
	name     string
	capacity units.Bandwidth // serialization rate; 0 = infinitely fast
	latency  units.Time      // propagation delay after serialization
	depth    int             // max messages queued or in service; 0 = unbounded

	queued   int        // nil-delivery messages accepted but not yet fully serialized
	nextFree units.Time // when the serializer finishes its current backlog

	// dep is the FIFO ring of pending departure stamps. A channel's
	// depart event has exactly one effect — releasing its queue slot at a
	// stamp that is fully determined at enqueue time — so instead of
	// scheduling 2x events per message, every send records (done, seq)
	// here and occupancy readings purge stamps the classic depart event
	// would already have run for: done before now, or done at now with
	// the reserved sequence number below the dispatching event's. Stamps
	// are monotone in (done, seq) because done always equals the new
	// nextFree. Only nil-delivery sends still schedule a real depart
	// event: it may be the calendar's last event, and the engine's final
	// clock after an unbounded Run must not shift.
	//
	// The ring is a power-of-two circular buffer holding depLen live
	// stamps from depHead on. It doubles only when full, so its size
	// follows the channel's peak occupancy, not its message count, and a
	// channel that never drains stops allocating once it has seen its
	// busiest moment.
	dep     []departure
	depHead int
	depLen  int

	// memoSize/memoTx are a one-entry serialization-time memo: a channel
	// carries a handful of fixed message sizes (requests, cache lines,
	// acks) and usually the same one back to back, so the float divide
	// and round inside Bandwidth.TimeToSend are worth short-circuiting
	// on the per-message hot path.
	memoSize units.ByteSize
	memoTx   units.Time

	refused  uint64 // sends refused due to a full queue (backpressure events)
	busy     units.Time
	meter    telemetry.Meter
	queueLat telemetry.Histogram // time from accept to start of service

	// tr is the flight recorder, nil unless SetTracer attached one; hop is
	// this channel's id in its registry.
	tr  *trace.Tracer
	hop trace.HopID

	// departFn is the serialization-complete callback, bound once so the
	// per-message hot path schedules it without allocating a closure.
	departFn func()
}

// NewChannel builds a channel. name appears in telemetry and the device
// tree; capacity 0 means infinitely fast; depth 0 means unbounded.
func NewChannel(eng *sim.Engine, name string, capacity units.Bandwidth, latency units.Time, depth int) *Channel {
	if eng == nil {
		panic("link: nil engine")
	}
	if depth < 0 {
		panic(fmt.Sprintf("link: %s: negative queue depth", name))
	}
	c := &Channel{eng: eng, name: name, capacity: capacity, latency: latency, depth: depth}
	c.departFn = c.depart
	return c
}

// depart marks the message at the head of the serializer finished.
func (c *Channel) depart() { c.queued-- }

// timeToSend is capacity.TimeToSend behind the one-entry memo.
func (c *Channel) timeToSend(size units.ByteSize) units.Time {
	if size != c.memoSize {
		c.memoSize = size
		c.memoTx = c.capacity.TimeToSend(size)
	}
	return c.memoTx
}

// departure is one pending elided-depart record: the stamp the message
// finishes serializing, and the sequence number its depart event reserved.
type departure struct {
	done units.Time
	seq  uint64
}

// purgeDepartures drops every departure stamp whose classic depart event
// would already have run: earlier than now, or at now with a sequence
// number the current dispatch has passed. The predicate is monotone in
// execution order, so purging destructively is safe.
func (c *Channel) purgeDepartures() {
	now := c.eng.Now()
	cur := c.eng.CurSeq()
	mask := len(c.dep) - 1
	for c.depLen > 0 {
		d := c.dep[c.depHead]
		if d.done > now || (d.done == now && d.seq > cur) {
			break
		}
		c.depHead = (c.depHead + 1) & mask
		c.depLen--
	}
}

// pushDeparture records one message's departure stamp in place of its
// depart event, reserving the sequence number the event would have used
// (keeping every later tie-break classic) and counting the elided event
// in the engine's fused counter.
func (c *Channel) pushDeparture(done units.Time) {
	c.purgeDepartures()
	if c.depLen == len(c.dep) {
		c.growDepartures()
	}
	c.dep[(c.depHead+c.depLen)&(len(c.dep)-1)] = departure{done: done, seq: c.eng.ReserveSeq()}
	c.depLen++
	c.eng.NoteFused()
}

// minDepartures is the ring's first allocation, made by the first send
// rather than at construction: most channels in a platform never carry
// a message, and building a platform is on every cell's setup path.
const minDepartures = 8

// growDepartures doubles the full ring, unwrapping its live stamps to the
// front of the new buffer.
func (c *Channel) growDepartures() {
	n := 2 * len(c.dep)
	if n == 0 {
		n = minDepartures
	}
	buf := make([]departure, n)
	k := copy(buf, c.dep[c.depHead:])
	copy(buf[k:], c.dep[:c.depHead])
	c.dep = buf
	c.depHead = 0
}

// SetTracer attaches the flight recorder, registering this channel as a
// hop named after it. Attach at most once per tracer, before running
// traffic; nil detaches.
func (c *Channel) SetTracer(tr *trace.Tracer) {
	c.tr = tr
	if tr != nil {
		c.hop = tr.RegisterHop(c.name, trace.KindChannel)
	}
}

// Hop reports the channel's id in the attached tracer's registry (zero
// when no tracer is attached).
func (c *Channel) Hop() trace.HopID { return c.hop }

// Name reports the channel's telemetry name.
func (c *Channel) Name() string { return c.name }

// Capacity reports the serialization rate.
func (c *Channel) Capacity() units.Bandwidth { return c.capacity }

// Depth reports the queue bound (0 = unbounded).
func (c *Channel) Depth() int { return c.depth }

// occupancy is the classically-exact count of messages accepted but not
// fully serialized: the live departure stamps plus the nil-delivery
// messages still tracked by real depart events.
func (c *Channel) occupancy() int {
	c.purgeDepartures()
	return c.depLen + c.queued
}

// Queued reports the messages currently accepted but not fully serialized.
func (c *Channel) Queued() int { return c.occupancy() }

// TrySend attempts to enqueue a message of the given size. If the queue is
// full it reports false and the message is NOT accepted — the caller owns
// the retry (paced sources retry at their demand rate, which is what makes
// bandwidth partitioning arrival-proportional). On acceptance, deliver is
// invoked when the message has fully serialized and propagated.
func (c *Channel) TrySend(size units.ByteSize, deliver func()) bool {
	return c.TrySendAfter(size, 0, deliver)
}

// TrySendAfter is TrySend with a per-message additional propagation delay,
// used for routes whose mesh hop count varies by destination.
func (c *Channel) TrySendAfter(size units.ByteSize, extra units.Time, deliver func()) bool {
	if c.depth > 0 && c.occupancy() >= c.depth {
		c.refused++
		return false
	}
	c.enqueue(size, extra, deliver)
	return true
}

// Send enqueues unconditionally, ignoring the queue bound. It is used for
// responses and acks, which in hardware ride reserved virtual channels so
// they cannot deadlock behind requests.
func (c *Channel) Send(size units.ByteSize, deliver func()) {
	c.enqueue(size, 0, deliver)
}

// SendAfter is Send with a per-message additional propagation delay.
func (c *Channel) SendAfter(size units.ByteSize, extra units.Time, deliver func()) {
	c.enqueue(size, extra, deliver)
}

// enqueue accepts a message unconditionally: the queue-bound check, if
// any, belongs to the caller. Sharing this path between TrySendAfter and
// SendAfter means the bound is never bypassed by mutating c.depth, so a
// panic or re-entrant send mid-enqueue cannot leave the bound corrupted.
func (c *Channel) enqueue(size units.ByteSize, extra units.Time, deliver func()) {
	now := c.eng.Now()
	start := now
	if c.nextFree > start {
		start = c.nextFree
	}
	txTime := c.timeToSend(size)
	done := start + txTime
	c.nextFree = done
	c.busy += txTime
	c.queueLat.Record(start - now)
	c.meter.Record(size)
	if c.tr != nil {
		// The propagating span covers only this channel's own latency;
		// any per-message extra delay models a different stage and is
		// attributed by the caller, keeping span tilings overlap-free.
		c.tr.Enqueue(c.hop, size, now, start, done, done+c.latency)
	}
	if deliver == nil {
		// No arrival to schedule: the depart event doubles as the
		// message's only calendar footprint, keeping the engine's final
		// clock after an unbounded Run exactly where it always was.
		c.queued++
		c.eng.At(done, c.departFn)
		return
	}
	c.pushDeparture(done)
	c.eng.At(done+c.latency+extra, deliver)
}

// QueueDelay reports how long a message accepted now would wait before
// starting service: the current backlog of the serializer.
func (c *Channel) QueueDelay() units.Time {
	if d := c.nextFree - c.eng.Now(); d > 0 {
		return d
	}
	return 0
}

// Saturated reports whether the queue is at least the given fraction full.
// Flow controllers use it as their congestion signal.
func (c *Channel) Saturated(frac float64) bool {
	if c.depth == 0 {
		return false
	}
	return float64(c.occupancy()) >= frac*float64(c.depth)
}

// Refused reports how many sends were refused by backpressure.
func (c *Channel) Refused() uint64 { return c.refused }

// BusyTime reports the cumulative serializer occupancy since the last
// stats reset. The windowed metrics pipeline differences it per harvest
// window: delta/window is the window's utilization.
func (c *Channel) BusyTime() units.Time { return c.busy }

// Bytes reports the cumulative accepted bytes since the last stats reset.
func (c *Channel) Bytes() units.ByteSize { return c.meter.Bytes() }

// Messages reports the cumulative accepted messages since the last stats
// reset.
func (c *Channel) Messages() uint64 { return c.meter.Ops() }

// QueueWaitTotal reports the cumulative time messages spent waiting
// behind the serializer backlog (the sum over all accepted messages of
// accept-to-service time) since the last stats reset — the channel's
// congestion-time signal for the windowed bottleneck attributor.
func (c *Channel) QueueWaitTotal() units.Time { return c.queueLat.Sum() }

// Stats is a snapshot of a channel's counters for telemetry export.
type Stats struct {
	Name         string
	Capacity     units.Bandwidth
	Bytes        units.ByteSize
	Messages     uint64
	Refused      uint64
	BusyTime     units.Time
	MeanQueueing units.Time
	P999Queueing units.Time
}

// Stats snapshots the channel counters.
func (c *Channel) Stats() Stats {
	return Stats{
		Name:         c.name,
		Capacity:     c.capacity,
		Bytes:        c.meter.Bytes(),
		Messages:     c.meter.Ops(),
		Refused:      c.refused,
		BusyTime:     c.busy,
		MeanQueueing: c.queueLat.Mean(),
		P999Queueing: c.queueLat.P999(),
	}
}

// Utilization reports the fraction of the window since the last stats
// reset (or since time zero) the serializer spent busy.
func (c *Channel) Utilization() float64 {
	span := c.eng.Now() - c.meter.Start()
	if span <= 0 {
		return 0
	}
	return float64(c.busy) / float64(span)
}

// ResetStats clears counters without disturbing in-flight messages.
func (c *Channel) ResetStats() {
	c.refused = 0
	c.busy = 0
	c.meter.Reset(c.eng.Now())
	c.queueLat.Reset()
}
