// Package sim provides the discrete-event simulation engine underlying the
// chiplet-network model: a picosecond-resolution event calendar and a
// deterministic pseudo-random source.
//
// Everything in one engine is single-threaded by design. Hardware
// interconnects are themselves deterministic state machines; modelling them
// with goroutines would trade reproducibility for no fidelity gain. Tests
// and experiments rely on bit-identical replay from a seed. Parallelism
// lives one level up: independent experiment cells each own a private
// Engine and run concurrently (see internal/harness), which preserves the
// per-engine determinism contract.
//
// The calendar is a sliding timing wheel plus one aside heap. The wheel is
// a ring of wheelSlots slots, each covering 1<<tickShift picoseconds,
// whose horizon is measured from now's tick: every wheel event's tick lies
// in [now>>tickShift, now>>tickShift+wheelSlots), so two live ticks never
// share a slot and the window never has to be rebased. A slot is a list of
// pooled nodes kept in (time, seq) order. A stamp not earlier than its
// slot's tail is appended; an earlier one is linked in after the last
// entry stamped at or before it, found by walking at most walkCap entries
// from the head. The aside heap, a (time, seq) binary heap, takes the
// rest: stamps beyond the ~1 µs horizon and inserts whose place lies past
// the walk cap, so a slot crowded with out-of-order stamps costs O(log n),
// never an O(n) walk. Channel serialization, hop latencies and
// DRAM queue backlogs schedule almost every event within the horizon, so
// the common case is an O(1) append or a short insert and an O(1) pop,
// and the earliest tick is cached rather than searched for. Nodes and the
// heap reuse their storage across events, so steady-state scheduling does
// not allocate.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

const (
	// tickShift sets the wheel granularity: one slot spans 1<<tickShift
	// picoseconds (256 ps). Coarse enough that wheelSlots of them reach
	// past the DRAM queue backlogs; the slot lists keep the finer order.
	tickShift = 8
	// wheelSlots is the number of wheel slots; with tickShift=8 the
	// horizon is wheelSlots<<tickShift ≈ 1.05 µs of simulated time, past
	// almost every serialization, hop, pacing and DRAM queueing delay.
	// Must be a power of two (slot index is tick&slotMask) and a multiple
	// of 64 (occupancy bitmap words).
	wheelSlots = 4096
	slotMask   = wheelSlots - 1
	wheelSpan  = units.Time(wheelSlots << tickShift)
	// walkCap bounds the list walk of an out-of-order insert; a stamp
	// whose place lies further in goes to the aside heap.
	walkCap = 8
)

// Engine is a discrete-event scheduler. The zero value is not usable; use
// New.
type Engine struct {
	now      units.Time
	seq      uint64
	rng      *RNG
	executed uint64
	fused    uint64
	// lastFused is the latest stamp of an elided depart event: an
	// unbounded Run ends no earlier, as it would have had the event run.
	lastFused units.Time

	// curSeq is the sequence number of the event currently dispatching,
	// or idleSeq between drives. Elided bookkeeping events (a channel's
	// departure stamps) reserve real sequence numbers and compare them
	// against curSeq, so a same-timestamp observer resolves "has this
	// departure happened yet" exactly as the classic (time, seq)
	// tie-break would have.
	curSeq uint64

	// minTick is the earliest occupied slot's tick, exact whenever
	// wheelLen > 0. An append to an empty slot lowers it; it is rescanned
	// only when its slot drains.
	minTick  int64
	wheelLen int // events in slot lists
	// slots holds one (time, seq)-ordered list per tick of the sliding
	// horizon; a slot's entry is meaningful only while its occ bit is set.
	slots *[wheelSlots]slot
	occ   [wheelSlots / 64]uint64 // occupancy bitmap, one bit per slot
	// nodes is the pool the slot lists link through; free heads the list
	// of recycled nodes (-1 when empty), so the pool only grows to the
	// peak number of wheel events.
	nodes []node
	free  int32
	// aside is a (time, seq) min-heap of the events no slot list takes:
	// stamps beyond the horizon and out-of-order stamps whose place in
	// their slot's list lies past the walk cap.
	aside []event
}

// New returns an engine whose clock starts at zero and whose random source
// is seeded with seed (two engines built with the same seed replay
// identically).
func New(seed uint64) *Engine {
	return &Engine{
		rng:    NewRNG(seed),
		slots:  new([wheelSlots]slot),
		curSeq: idleSeq,
		free:   -1,
	}
}

// idleSeq is curSeq between drives: the host observes state only after
// every event at the current timestamp has run, so a departure stamped at
// now always counts as departed.
const idleSeq = ^uint64(0)

// ReserveSeq consumes and returns the sequence number the next scheduled
// event would have received, without scheduling anything. A channel's
// departure-stamp ring reserves the number of each depart event it
// elides, so the (time, seq) tie-break order of every event that does get
// scheduled is bit-for-bit the order a real depart event would have left.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// CurSeq reports the sequence number of the event currently dispatching
// (idleSeq between drives). An elided departure at the current timestamp
// has classically happened iff its reserved sequence number is below it.
func (e *Engine) CurSeq() uint64 { return e.curSeq }

// Now reports the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *RNG { return e.rng }

// Pending reports the number of scheduled, not-yet-run events.
func (e *Engine) Pending() int { return e.wheelLen + len(e.aside) }

// Executed reports the number of events run since construction — the
// engine's work counter for throughput benchmarks (events/sec).
func (e *Engine) Executed() uint64 { return e.executed }

// Fused reports the number of departure events elided by channel stamp
// rings instead of being scheduled and run, counted when elided.
// Executed+Fused is the classic-equivalent event count of a run that
// drained, and counts the still-pending departs of one that did not.
func (e *Engine) Fused() uint64 { return e.fused }

// NoteFused counts one departure event elided by a channel stamp ring,
// stamped at: Run's final clock accounts for it as if it had run.
func (e *Engine) NoteFused(at units.Time) {
	e.fused++
	if at > e.lastFused {
		e.lastFused = at
	}
}

// NextAt reports the timestamp of the earliest pending event. ok is false
// when the calendar is empty. It compares the head of minTick's slot with
// the aside heap's top, without restructuring the calendar.
func (e *Engine) NextAt() (units.Time, bool) {
	if ev, _ := e.peek(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// peek returns the earliest pending event, or nil when the calendar is
// empty, and whether it is the aside heap's top rather than the head of
// minTick's slot.
func (e *Engine) peek() (ev *event, aside bool) {
	if e.wheelLen > 0 {
		ev = &e.nodes[e.slots[e.minTick&slotMask].head].event
		if len(e.aside) > 0 && e.aside[0].before(*ev) {
			return &e.aside[0], true
		}
		return ev, false
	}
	if len(e.aside) > 0 {
		return &e.aside[0], true
	}
	return nil, false
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a programming error and panics: allowing it silently would
// reorder causality.
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now (%v)", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	tick := int64(t) >> tickShift
	if tick-int64(e.now)>>tickShift >= wheelSlots {
		e.aside = heapPush(e.aside, ev)
		return
	}
	idx := tick & slotMask
	s, bit := &e.slots[idx], uint64(1)<<uint(idx&63)
	switch {
	case e.occ[idx>>6]&bit == 0:
		n := e.newNode(ev)
		s.head, s.tail = n, n
		e.occ[idx>>6] |= bit
		if e.wheelLen == 0 || tick < e.minTick {
			e.minTick = tick
		}
	case t >= e.nodes[s.tail].at:
		n := e.newNode(ev)
		e.nodes[s.tail].next = n
		s.tail = n
	default:
		if !e.insertSorted(s, ev) {
			e.aside = heapPush(e.aside, ev)
			return
		}
	}
	e.wheelLen++
}

// insertSorted links ev, stamped earlier than s's tail, into s's list
// after the last entry stamped at or before it; ev's seq is the largest
// yet, so equal stamps stay FIFO. It walks at most walkCap entries from
// the head and reports false, linking nothing, when the place lies
// further in.
func (e *Engine) insertSorted(s *slot, ev event) bool {
	prev := s.head
	if ev.at < e.nodes[prev].at {
		n := e.newNode(ev)
		e.nodes[n].next = prev
		s.head = n
		return true
	}
	for i := 0; i < walkCap; i++ {
		next := e.nodes[prev].next
		if ev.at < e.nodes[next].at {
			n := e.newNode(ev)
			e.nodes[n].next = next
			e.nodes[prev].next = n
			return true
		}
		prev = next
	}
	return false
}

// After schedules fn to run d after the current time. A negative d is
// clamped to zero (run as the next event at the current timestamp).
func (e *Engine) After(d units.Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
func (e *Engine) Step() bool {
	ran := e.stepOne(0, false)
	e.curSeq = idleSeq
	return ran
}

// Run processes events until the calendar is empty. The clock ends at the
// last event or at the latest elided departure stamp, whichever is later:
// exactly where running every elided depart event would have left it.
func (e *Engine) Run() {
	for e.stepOne(0, false) {
	}
	e.curSeq = idleSeq
	if e.lastFused > e.now {
		e.now = e.lastFused
	}
}

// RunUntil processes every event scheduled at or before t, then advances
// the clock to exactly t. Events scheduled later remain pending.
func (e *Engine) RunUntil(t units.Time) {
	for e.stepOne(t, true) {
	}
	e.curSeq = idleSeq
	if t > e.now {
		e.now = t
	}
}

// stepOne pops and runs the earliest pending event (only up to limit when
// bounded), reporting whether one ran.
func (e *Engine) stepOne(limit units.Time, bounded bool) bool {
	next, aside := e.peek()
	if next == nil || bounded && next.at > limit {
		return false
	}
	ev := *next
	if aside {
		e.aside = heapPop(e.aside)
	} else {
		e.popWheel()
	}
	e.now = ev.at
	e.curSeq = ev.seq
	e.executed++
	ev.fn()
	return true
}

// RunFor processes events for a span d of simulated time starting now.
func (e *Engine) RunFor(d units.Time) { e.RunUntil(e.now + d) }

// newNode stores ev in a recycled node, or grows the pool by one.
func (e *Engine) newNode(ev event) int32 {
	n := e.free
	if n < 0 {
		e.nodes = append(e.nodes, node{event: ev})
		return int32(len(e.nodes) - 1)
	}
	e.free = e.nodes[n].next
	e.nodes[n] = node{event: ev}
	return n
}

// popWheel removes the head of minTick's slot, recycling its node. When
// the slot drains, minTick moves to the next occupied slot: the bitmap is
// walked circularly from the drained slot, which visits the live ticks
// [minTick, now's tick + wheelSlots) in order.
func (e *Engine) popWheel() {
	idx := e.minTick & slotMask
	s := &e.slots[idx]
	n := s.head
	s.head = e.nodes[n].next
	e.nodes[n] = node{next: e.free}
	e.free = n
	e.wheelLen--
	if n != s.tail {
		return
	}
	e.occ[idx>>6] &^= 1 << uint(idx&63)
	if e.wheelLen == 0 {
		return
	}
	pos := int(idx)
	for i := 0; i <= wheelSlots/64; i++ {
		if w := e.occ[pos>>6] >> uint(pos&63); w != 0 {
			next := pos + bits.TrailingZeros64(w)
			e.minTick += int64((next - int(idx)) & slotMask)
			return
		}
		pos = ((pos | 63) + 1) & slotMask
	}
	panic("sim: wheel count disagrees with the occupancy bitmap")
}

// slot is one wheel slot's list: the pool indices of its first and last
// nodes.
type slot struct{ head, tail int32 }

// node is one slot-list entry: an event and the pool index of the next
// entry in its slot (or in the free list).
type node struct {
	event
	next int32
}

// event is one calendar entry. seq breaks timestamp ties in FIFO order so
// same-time events run in the order they were scheduled.
type event struct {
	at  units.Time
	seq uint64
	fn  func()
}

// before orders events by (timestamp, scheduling sequence) — the strict
// tie-break the slot lists keep by sorted linking and the aside heap
// keeps by comparison, so ordering is identical wherever an event lives.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends ev to the min-heap h and restores heap order. The
// backing array is reused across events, so pushes do not allocate once a
// heap has reached its steady-state size.
func heapPush(h []event, ev event) []event {
	h = append(h, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapPop removes the minimum of h, zeroing the vacated entry so the
// callback does not outlive its event.
func heapPop(h []event) []event {
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h
}
