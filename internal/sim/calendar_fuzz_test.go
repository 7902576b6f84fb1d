package sim

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/units"
)

// noEvent is the unbounded horizon the reference calendar drains to on Run.
const noEvent = units.Time(math.MaxInt64)

// FuzzCalendar decodes the fuzz bytes into a schedule of At/After calls
// and RunUntil/Step/Run drives, runs it on an Engine and on a reference
// calendar (a container/heap keyed on (time, seq)), and checks that both
// dispatch the same events in the same order at the same times, with
// equal Executed, Now, Pending and NextAt after every drive, and that the
// calendar's own invariants hold after every op (see checkWheel).
// Scheduled events may schedule further events from their callbacks.
// Stamps are drawn to collide exactly (same stamp, FIFO by scheduling
// order), to arrive out of order within one 256 ps slot (a sorted insert
// into the slot list, or the aside heap past the walk cap), to straddle
// the sliding horizon measured from now's tick and to land far beyond it
// (the aside heap again). The seed corpus in
// testdata/fuzz/FuzzCalendar covers same-stamp FIFO across the horizon,
// a stamp exactly one horizon ahead of now's tick, out-of-order inserts
// at the head and in the middle of a slot list, the walk-cap fallback
// splitting equal stamps between a list and the aside heap, list and
// aside entries interleaving at one stamp, a minimum-slot rescan that
// wraps the bitmap, the aside heap holding the minimum while the wheel
// is non-empty, and node reuse.
//
// Encoding: 8 bytes of four big-endian uint16 anchors (x 320 ps), then
// ops. An op byte selects, mod 8: 0-2 schedule a node, 3 Step, 4
// RunUntil(now + u16 x 64 ps), 5 RunUntil(NextAt), 6 Run, 7
// RunUntil(now). A node is 3 bytes — flags, a, b — followed by its
// children: flags bit 0 picks After over At, (flags>>1)%6 the stamp class
// (see calNode.stamp), (flags>>4)%4 the number of children it schedules
// when it fires. Missing bytes read as zero.
func FuzzCalendar(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runCalProgram(t, data) })
}

// runCalProgram runs one decoded fuzz program on an Engine and on the
// reference calendar, failing t at the first divergence.
func runCalProgram(t testing.TB, data []byte) {
	p := decodeCalProgram(data)
	e := New(1)
	ref := &refCalendar{}
	var got []calFired
	var schedule func(n *calNode)
	schedule = func(n *calNode) {
		fn := func() {
			got = append(got, calFired{n.id, e.Now()})
			for _, c := range n.children {
				schedule(c)
			}
		}
		if n.after {
			e.After(n.delay(e.Now(), p.anchors), fn)
		} else {
			e.At(n.stamp(e.Now(), p.anchors), fn)
		}
	}
	checked := 0
	for i, op := range p.ops {
		switch {
		case op.node != nil:
			schedule(op.node)
			ref.schedule(op.node, p.anchors)
		case op.kind == calStep:
			ran := e.Step()
			if want := ref.step(p.anchors); ran != want {
				t.Fatalf("op %d: Step ran %v, reference %v", i, ran, want)
			}
		case op.kind == calRunUntil:
			limit := op.limit(e)
			e.RunUntil(limit)
			ref.runUntil(limit, p.anchors)
		case op.kind == calRun:
			e.Run()
			ref.runUntil(noEvent, p.anchors)
		}
		checked = checkCalendar(t, i, e, ref, got, checked)
		checkWheel(t, i, e)
	}
	e.Run()
	ref.runUntil(noEvent, p.anchors)
	checkCalendar(t, len(p.ops), e, ref, got, checked)
}

// checkCalendar compares the engine with the reference after op i; the
// first checked dispatches were compared after earlier ops. It returns
// the number of dispatches compared so far.
func checkCalendar(t testing.TB, i int, e *Engine, ref *refCalendar, got []calFired, checked int) int {
	t.Helper()
	if len(got) != len(ref.fired) {
		t.Fatalf("op %d: engine dispatched %d events, reference %d", i, len(got), len(ref.fired))
	}
	for k := checked; k < len(got); k++ {
		if got[k] != ref.fired[k] {
			t.Fatalf("op %d: dispatch %d is node %d at %v, reference node %d at %v",
				i, k, got[k].id, got[k].at, ref.fired[k].id, ref.fired[k].at)
		}
	}
	if e.Executed() != ref.executed || e.Now() != ref.now || e.Pending() != ref.h.Len() {
		t.Fatalf("op %d: executed/now/pending = %d/%v/%d, reference %d/%v/%d",
			i, e.Executed(), e.Now(), e.Pending(), ref.executed, ref.now, ref.h.Len())
	}
	next, ok := e.NextAt()
	var want units.Time
	if ref.h.Len() > 0 {
		want = ref.h[0].at
	}
	if ok != (ref.h.Len() > 0) || next != want {
		t.Fatalf("op %d: NextAt = %v, %v; reference %v, %v", i, next, ok, want, ref.h.Len() > 0)
	}
	return len(got)
}

// checkWheel verifies the calendar's structure after op i: every occupied
// slot holds a list of events of its own tick inside the sliding horizon,
// in (time, seq) order; the lists and the aside heap together hold
// Pending() events; every pool node is either listed or free; the aside
// heap is heap-ordered; and minTick is the earliest occupied tick.
func checkWheel(t testing.TB, i int, e *Engine) {
	t.Helper()
	nowTick := int64(e.now) >> tickShift
	wheel, minTick := 0, int64(math.MaxInt64)
	for idx := int64(0); idx < wheelSlots; idx++ {
		if e.occ[idx>>6]>>uint(idx&63)&1 == 0 {
			continue
		}
		s := e.slots[idx]
		var prev *event
		for n := s.head; ; n = e.nodes[n].next {
			ev := &e.nodes[n].event
			tick := int64(ev.at) >> tickShift
			if tick&slotMask != idx || tick < nowTick || tick >= nowTick+wheelSlots {
				t.Fatalf("op %d: slot %d holds tick %d, now's tick %d", i, idx, tick, nowTick)
			}
			if prev != nil && !prev.before(*ev) {
				t.Fatalf("op %d: slot %d lists %v/%d after %v/%d", i, idx, ev.at, ev.seq, prev.at, prev.seq)
			}
			if tick < minTick {
				minTick = tick
			}
			if wheel++; wheel > len(e.nodes) {
				t.Fatalf("op %d: slot %d's list does not end at its tail", i, idx)
			}
			prev = ev
			if n == s.tail {
				break
			}
		}
	}
	free := 0
	for n := e.free; n >= 0 && free <= len(e.nodes); n = e.nodes[n].next {
		free++
	}
	if wheel != e.wheelLen || e.Pending() != wheel+len(e.aside) || wheel+free != len(e.nodes) {
		t.Fatalf("op %d: %d listed (wheelLen %d), %d aside, %d free of %d nodes, Pending %d",
			i, wheel, e.wheelLen, len(e.aside), free, len(e.nodes), e.Pending())
	}
	for k := 1; k < len(e.aside); k++ {
		if e.aside[k].before(e.aside[(k-1)/2]) {
			t.Fatalf("op %d: aside heap out of order at %d", i, k)
		}
	}
	if wheel > 0 && e.minTick != minTick {
		t.Fatalf("op %d: minTick %d, earliest occupied tick %d", i, e.minTick, minTick)
	}
}

// calFired records one dispatch: which node ran, and at what time.
type calFired struct {
	id int
	at units.Time
}

// calNode is one scheduled event of a fuzz program, with the events its
// callback schedules when it fires.
type calNode struct {
	id       int
	after    bool
	class    int
	a, b     byte
	children []*calNode
}

// stamp is the absolute time the node is scheduled for, given the time
// it is scheduled at.
func (n *calNode) stamp(now units.Time, anchors [4]units.Time) units.Time {
	ab := units.Time(n.a)<<8 | units.Time(n.b)
	switch n.class {
	case 0: // exactly now
		return now
	case 1: // within a tick or two, in any order: sorted slot inserts
		return now + units.Time(n.a)
	case 2: // anywhere inside the wheel
		return now + ab*(wheelSpan>>16)
	case 3: // straddling the horizon, which starts at now's tick
		horizon := units.Time((int64(now)>>tickShift + wheelSlots) << tickShift)
		return horizon - 512 + ab%1024
	case 4: // far beyond the horizon: the aside heap
		return now + units.Time(1+n.a%16)*wheelSpan + units.Time(n.b)*1000
	default: // a shared anchor: exact collisions between schedulers
		if at := anchors[n.a%4]; at > now {
			return at
		}
		return now
	}
}

// delay is the After argument: the stamp's distance from now, or a
// negative delay (clamped to zero by After) for class 0.
func (n *calNode) delay(now units.Time, anchors [4]units.Time) units.Time {
	if n.class == 0 {
		return -units.Time(n.a)
	}
	return n.stamp(now, anchors) - now
}

const (
	calSchedule = iota
	calStep
	calRunUntil
	calRun
)

// calOp is one program step: a top-level schedule, or a drive.
type calOp struct {
	kind int
	node *calNode
	// untilNext drives RunUntil to the earliest pending stamp; otherwise
	// RunUntil goes to now + delta.
	untilNext bool
	delta     units.Time
}

// limit is a RunUntil op's horizon.
func (op calOp) limit(e *Engine) units.Time {
	if op.untilNext {
		if next, ok := e.NextAt(); ok {
			return next
		}
	}
	return e.Now() + op.delta
}

type calProgram struct {
	anchors [4]units.Time
	ops     []calOp
}

// Bounds keeping one fuzz input cheap.
const (
	calMaxOps   = 512
	calMaxNodes = 4096
	calMaxDepth = 3
)

func decodeCalProgram(data []byte) calProgram {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var p calProgram
	for i := range p.anchors {
		hi := next()
		p.anchors[i] = (units.Time(hi)<<8 | units.Time(next())) * 320
	}
	nodes := 0
	var node func(depth int) *calNode
	node = func(depth int) *calNode {
		flags := next()
		n := &calNode{id: nodes, after: flags&1 != 0, class: int(flags>>1) % 6}
		nodes++
		n.a, n.b = next(), next()
		for k := int(flags>>4) % 4; k > 0 && depth < calMaxDepth && nodes < calMaxNodes; k-- {
			n.children = append(n.children, node(depth+1))
		}
		return n
	}
	for pos < len(data) && len(p.ops) < calMaxOps && nodes < calMaxNodes {
		switch op := next() % 8; op {
		case 0, 1, 2:
			p.ops = append(p.ops, calOp{kind: calSchedule, node: node(0)})
		case 3:
			p.ops = append(p.ops, calOp{kind: calStep})
		case 4:
			hi := next()
			p.ops = append(p.ops, calOp{kind: calRunUntil, delta: (units.Time(hi)<<8 | units.Time(next())) * 64})
		case 5:
			p.ops = append(p.ops, calOp{kind: calRunUntil, untilNext: true})
		case 6:
			p.ops = append(p.ops, calOp{kind: calRun})
		case 7:
			p.ops = append(p.ops, calOp{kind: calRunUntil})
		}
	}
	return p
}

// refCalendar is the reference model: a binary heap ordered by (time,
// seq), with the Engine's drive semantics written out directly.
type refCalendar struct {
	h        refHeap
	now      units.Time
	seq      uint64
	executed uint64
	fired    []calFired
}

type refEvent struct {
	at   units.Time
	seq  uint64
	node *calNode
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

func (r *refCalendar) schedule(n *calNode, anchors [4]units.Time) {
	at := n.stamp(r.now, anchors)
	if n.after {
		d := n.delay(r.now, anchors)
		if d < 0 {
			d = 0
		}
		at = r.now + d
	}
	r.seq++
	heap.Push(&r.h, refEvent{at: at, seq: r.seq, node: n})
}

// dispatch pops and runs the earliest event.
func (r *refCalendar) dispatch(anchors [4]units.Time) {
	ev := heap.Pop(&r.h).(refEvent)
	r.now = ev.at
	r.executed++
	r.fired = append(r.fired, calFired{ev.node.id, ev.at})
	for _, c := range ev.node.children {
		r.schedule(c, anchors)
	}
}

func (r *refCalendar) step(anchors [4]units.Time) bool {
	if r.h.Len() == 0 {
		return false
	}
	r.dispatch(anchors)
	return true
}

func (r *refCalendar) runUntil(limit units.Time, anchors [4]units.Time) {
	for r.h.Len() > 0 && r.h[0].at <= limit {
		r.dispatch(anchors)
	}
	if limit != noEvent && limit > r.now {
		r.now = limit
	}
}
