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
// The calendar is a hierarchical timing wheel: a ring of wheelSlots
// buckets, each covering 1<<tickShift picoseconds of the near future, backed
// by an overflow heap for events beyond the wheel horizon. Channel
// serialization schedules almost every event within nanoseconds of now, so
// the common case is an O(1) bucket append and a pop from a bucket holding
// a handful of entries. Buckets and the overflow heap reuse their backing
// arrays across events, so steady-state scheduling does not allocate.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/units"
)

const (
	// tickShift sets the wheel granularity: one slot spans 1<<tickShift
	// picoseconds (256 ps). Fine enough that a slot rarely holds more than
	// a few events, coarse enough that the wheel horizon covers the
	// serialization and propagation delays that dominate scheduling.
	tickShift = 8
	// wheelSlots is the number of wheel buckets; with tickShift=8 the
	// horizon is wheelSlots<<tickShift ≈ 1.05 us of simulated time.
	// Must be a power of two (slot index is tick&slotMask) and a multiple
	// of 64 (occupancy bitmap words).
	wheelSlots = 4096
	slotMask   = wheelSlots - 1
	wheelSpan  = units.Time(wheelSlots << tickShift)
)

// Engine is a discrete-event scheduler. The zero value is not usable; use
// New.
type Engine struct {
	now      units.Time
	seq      uint64
	rng      *RNG
	pending  int
	executed uint64
	fused    uint64

	// curSeq is the sequence number of the event currently dispatching,
	// or idleSeq between drives. Elided bookkeeping events (a channel's
	// departure stamps) reserve real sequence numbers and compare them
	// against curSeq, so a same-timestamp observer resolves "has this
	// departure happened yet" exactly as the classic (time, seq)
	// tie-break would have.
	curSeq uint64

	// limit is the current drive's horizon: RunUntil(t) sets it to t, Run
	// to noEvent, Step to the dispatched event's own timestamp. It bounds
	// ExpressFence — when the drive returns, the host resumes inspecting
	// state as of the horizon, so no closed-form effect stamped beyond it
	// may have been applied early.
	limit units.Time

	// baseTick is the first slot tick covered by the current wheel window
	// [baseTick, baseTick+wheelSlots). It only moves forward, and only
	// when the wheel is empty (see jump), so a slot index never aliases
	// two live ticks.
	baseTick int64
	// scanHint is a tick below which no wheel slot is occupied — a
	// monotone lower bound that lets the occupancy scan resume where the
	// previous one left off instead of re-walking the bitmap from now's
	// tick. Pushes below it lower it; finds advance it.
	scanHint   int64
	wheelCount int       // events currently in wheel slots
	slots      [][]event // wheelSlots rings of per-slot min-heaps
	occ        []uint64  // occupancy bitmap, one bit per slot
	overflow   []event   // min-heap of events at/after baseTick+wheelSlots
	// spare is the free list of slot backing arrays. A draining slot
	// donates its array here and the next slot the window enters reuses
	// it, so a sliding burst of events does not grow a fresh array for
	// every slot it touches.
	spare [][]event
}

// New returns an engine whose clock starts at zero and whose random source
// is seeded with seed (two engines built with the same seed replay
// identically).
func New(seed uint64) *Engine {
	return &Engine{
		rng:    NewRNG(seed),
		slots:  make([][]event, wheelSlots),
		occ:    make([]uint64, wheelSlots/64),
		curSeq: idleSeq,
	}
}

// noEvent is the unbounded horizon: Run's drive limit, and the fence
// when neither the horizon nor the calendar constrains it.
const noEvent = units.Time(math.MaxInt64)

// idleSeq is curSeq between drives: the host observes state only after
// every event at the current timestamp has run, so a departure stamped at
// now always counts as departed.
const idleSeq = ^uint64(0)

// ReserveSeq consumes and returns the sequence number the next scheduled
// event would have received, without scheduling anything. The express
// path reserves the slot of each event it elides, so the (time, seq)
// tie-break order of every event that does get scheduled is bit-for-bit
// the order classic execution would have produced.
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
func (e *Engine) Pending() int { return e.pending }

// Executed reports the number of events run since construction — the
// engine's work counter for throughput benchmarks (events/sec).
func (e *Engine) Executed() uint64 { return e.executed }

// Fused reports the number of would-be events whose effects were applied
// in closed form by the express path instead of being scheduled and run.
// Executed+Fused is the classic-equivalent event count of a run.
func (e *Engine) Fused() uint64 { return e.fused }

// NoteFused adjusts the fused-event counter: +1 when a calendar event's
// effect was applied in closed form, -1 when a previously-elided
// continuation had to rematerialize as a real event after all.
func (e *Engine) NoteFused(d int64) { e.fused = uint64(int64(e.fused) + d) }

// ExpressFence reports the exclusive bound under which state mutations
// may be applied eagerly without any observer noticing: the earliest
// pending event's timestamp, capped by the drive horizon (events do not
// execute past it, and the host inspects state there). Engine state is
// only ever observed by event callbacks and by the host between drives,
// so effects whose classic execution timestamps all lie strictly below
// this fence are indistinguishable from having been executed by events —
// including RNG draw order, (time, seq) tie-breaks and FIFO order, since
// nothing else runs in between. The fence is valid until the current
// callback schedules or the engine dispatches another event.
func (e *Engine) ExpressFence() units.Time {
	f := noEvent
	if e.limit < f {
		f = e.limit + 1
	}
	if next, ok := e.NextAt(); ok && next < f {
		f = next
	}
	return f
}

// LimitFence is the drive-horizon half of ExpressFence alone: the
// exclusive bound below which a stamp cannot be observed by the host
// between drives. Express hops applied at the current engine time use it
// instead of the full fence — their channel bookkeeping is exactly what a
// classic enqueue at the same instant would write, so pending calendar
// events see no difference and only the drive horizon must stay
// protected.
func (e *Engine) LimitFence() units.Time {
	f := noEvent
	if e.limit < f {
		f = e.limit + 1
	}
	return f
}

// NextAt reports the timestamp of the earliest pending event. ok is false
// when the calendar is empty. The calendar is not restructured: peeking at
// an overflow-only calendar does not migrate events into the wheel.
func (e *Engine) NextAt() (units.Time, bool) {
	if e.wheelCount > 0 {
		tick := e.scanOccupied()
		return e.slots[tick&slotMask][0].at, true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].at, true
	}
	return 0, false
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a programming error and panics: allowing it silently would
// reorder causality.
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v which is before now (%v)", t, e.now))
	}
	e.seq++
	e.pending++
	ev := event{at: t, seq: e.seq, fn: fn}
	if tick := int64(t) >> tickShift; tick < e.baseTick+wheelSlots {
		e.slotPush(tick, ev)
	} else {
		e.overflow = heapPush(e.overflow, ev)
	}
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
// timestamp. It reports whether an event ran. The drive horizon closes to
// the event's own timestamp: the caller may inspect any state between
// single steps, so no future effect may be applied early.
func (e *Engine) Step() bool {
	if next, ok := e.NextAt(); ok {
		e.limit = next
	}
	ran := e.stepOne(0, false)
	e.curSeq = idleSeq
	return ran
}

// Run processes events until the calendar is empty.
func (e *Engine) Run() {
	e.limit = noEvent
	for e.stepOne(0, false) {
	}
	e.curSeq = idleSeq
}

// RunUntil processes every event scheduled at or before t, then advances
// the clock to exactly t. Events scheduled later remain pending.
func (e *Engine) RunUntil(t units.Time) {
	e.limit = t
	for e.stepOne(t, true) {
	}
	e.curSeq = idleSeq
	if t > e.now {
		e.now = t
	}
}

// stepOne pops and runs the earliest pending event (only up to limit when
// bounded), reporting whether one ran. The drive horizon e.limit is set
// by the drivers, not here — it outlives any single event.
func (e *Engine) stepOne(limit units.Time, bounded bool) bool {
	tick, ok := e.nextTick(limit, bounded)
	if !ok {
		return false
	}
	ev := e.slotPop(tick)
	e.now = ev.at
	e.curSeq = ev.seq
	e.pending--
	e.executed++
	ev.fn()
	return true
}

// RunFor processes events for a span d of simulated time starting now.
func (e *Engine) RunFor(d units.Time) { e.RunUntil(e.now + d) }

// nextTick locates the slot holding the earliest pending event, migrating
// overflow events into the wheel as the window advances. With bounded set
// it reports false — without restructuring the calendar — when every
// pending event is after limit.
func (e *Engine) nextTick(limit units.Time, bounded bool) (int64, bool) {
	for {
		if e.wheelCount > 0 {
			tick := e.scanOccupied()
			if bounded && e.slots[tick&slotMask][0].at > limit {
				return 0, false
			}
			return tick, true
		}
		if len(e.overflow) == 0 {
			return 0, false
		}
		if bounded && e.overflow[0].at > limit {
			return 0, false
		}
		e.jump()
	}
}

// scanOccupied returns the tick of the first occupied slot at or after the
// current time. Slots before now are necessarily empty (their events have
// run), so the occupancy bitmap walk starts at now's tick.
func (e *Engine) scanOccupied() int64 {
	start := int64(e.now) >> tickShift
	if start < e.baseTick {
		start = e.baseTick
	}
	if start < e.scanHint {
		start = e.scanHint
	}
	end := e.baseTick + wheelSlots
	for t := start; t < end; {
		pos := int(t & slotMask)
		if w := e.occ[pos>>6] >> uint(pos&63); w != 0 {
			tick := t + int64(bits.TrailingZeros64(w))
			e.scanHint = tick
			return tick
		}
		t += int64(64 - pos&63)
	}
	panic("sim: wheel events outside the window")
}

// jump advances the wheel window to the overflow minimum and migrates every
// overflow event that now falls inside the horizon. Only called with an
// empty wheel, so rebasing cannot alias live slots; the caller runs the
// migrated minimum immediately, which keeps baseTick <= now's tick.
func (e *Engine) jump() {
	minTick := int64(e.overflow[0].at) >> tickShift
	e.baseTick = minTick
	e.scanHint = minTick
	horizon := minTick + wheelSlots
	for len(e.overflow) > 0 {
		tick := int64(e.overflow[0].at) >> tickShift
		if tick >= horizon {
			break
		}
		ev := e.overflow[0]
		e.overflow = heapPop(e.overflow)
		e.slotPush(tick, ev)
	}
}

func (e *Engine) slotPush(tick int64, ev event) {
	if tick < e.scanHint {
		e.scanHint = tick
	}
	idx := tick & slotMask
	h := e.slots[idx]
	if len(h) == 0 {
		e.occ[idx>>6] |= 1 << uint(idx&63)
		if h == nil {
			if n := len(e.spare); n > 0 {
				h = e.spare[n-1]
				e.spare[n-1] = nil
				e.spare = e.spare[:n-1]
			}
		}
	}
	e.slots[idx] = heapPush(h, ev)
	e.wheelCount++
}

func (e *Engine) slotPop(tick int64) event {
	idx := tick & slotMask
	ev := e.slots[idx][0]
	h := heapPop(e.slots[idx])
	if len(h) == 0 {
		e.occ[idx>>6] &^= 1 << uint(idx&63)
		if cap(h) > 0 {
			e.spare = append(e.spare, h)
			h = nil
		}
	}
	e.slots[idx] = h
	e.wheelCount--
	return ev
}

// event is one calendar entry. seq breaks timestamp ties in FIFO order so
// same-time events run in the order they were scheduled.
type event struct {
	at  units.Time
	seq uint64
	fn  func()
}

// before orders events by (timestamp, scheduling sequence) — the strict
// tie-break every heap in the calendar shares, so ordering is identical
// whether an event lives in a wheel slot or the overflow heap.
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
