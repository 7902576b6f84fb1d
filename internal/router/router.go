// Package router is a packet-switched 2D-mesh network-on-chip at per-hop
// granularity: every mesh edge is a serialized, bounded channel and every
// message walks router to router under dimension-ordered (XY) routing.
// The paper's §2.3 describes mesh topologies with "either bufferless or
// buffered routing protocols"; this mesh is buffered: a router holds a
// refused message and retries the same port after a jittered backoff.
//
// The main model (internal/mesh) abstracts the I/O die's NoC as aggregate
// per-direction routing capacity, arguing that at the paper's loads the
// die-level ceiling is what binds. This package exists to check that
// argument: the A5 ablation drives the same offered loads through a real
// router mesh and compares the latency knee and saturation bandwidth
// against the aggregate abstraction.
package router

import (
	"fmt"
	"math"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/units"
)

// The one mesh modelled: 4x2 routers joined by Infinity-Fabric-class
// edges. Every directed edge carries linkCapacity with hopLatency
// propagation and stages at most queueDepth messages.
const (
	width, height = 4, 2
	linkCapacity  = 32 * units.Bandwidth(units.GB)
	hopLatency    = 7 * units.Nanosecond
	queueDepth    = 16
)

// Mesh is a running router network.
type Mesh struct {
	eng *sim.Engine
	// ports[node(c)] lists c's outgoing edges in fixed direction order
	// (+X, -X, +Y, -Y).
	ports [][]port
	rng   *sim.RNG
	free  []*frame // recycled message frames

	delivered uint64
	hops      uint64
	latency   telemetry.Histogram
}

// port is one directed edge out of a router.
type port struct {
	to topology.Coord
	ch *link.Channel
}

// directions is the fixed port order: +X, -X, +Y, -Y.
var directions = [4]topology.Coord{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}

// node is c's index in ports: column-major, the order edges are built in.
func node(c topology.Coord) int { return c.X*height + c.Y }

// onMesh reports whether c is one of the mesh's routers.
func onMesh(c topology.Coord) bool {
	return c.X >= 0 && c.X < width && c.Y >= 0 && c.Y < height
}

// New builds the mesh on eng.
func New(eng *sim.Engine) *Mesh {
	m := &Mesh{eng: eng, rng: eng.Rand(), ports: make([][]port, width*height)}
	for x := 0; x < width; x++ {
		for y := 0; y < height; y++ {
			at := topology.Coord{X: x, Y: y}
			for _, d := range directions {
				nb := topology.Coord{X: x + d.X, Y: y + d.Y}
				if !onMesh(nb) {
					continue
				}
				name := fmt.Sprintf("edge%v->%v", at, nb)
				ch := link.NewChannel(eng, name, linkCapacity, hopLatency, queueDepth)
				m.ports[node(at)] = append(m.ports[node(at)], port{to: nb, ch: ch})
			}
		}
	}
	return m
}

// edge reports the channel from at to its neighbour nb.
func (m *Mesh) edge(at, nb topology.Coord) *link.Channel {
	for _, p := range m.ports[node(at)] {
		if p.to == nb {
			return p.ch
		}
	}
	panic(fmt.Sprintf("router: no edge %v->%v", at, nb))
}

// xyNext reports the dimension-ordered next hop from at toward dst.
func xyNext(at, dst topology.Coord) topology.Coord {
	switch {
	case at.X < dst.X:
		return topology.Coord{X: at.X + 1, Y: at.Y}
	case at.X > dst.X:
		return topology.Coord{X: at.X - 1, Y: at.Y}
	case at.Y < dst.Y:
		return topology.Coord{X: at.X, Y: at.Y + 1}
	default:
		return topology.Coord{X: at.X, Y: at.Y - 1}
	}
}

// frame is the reusable state of one in-flight message. Its two callbacks
// are bound once when the frame is built: the next hop is stored in the
// frame before each send, so one arrival callback serves every hop, and
// one retry callback serves every backoff. Frames are recycled through the
// mesh's free list, so routing allocates nothing in steady state.
type frame struct {
	m       *Mesh
	at      topology.Coord // the router the message is at
	next    topology.Coord // the router the message is being sent to
	dst     topology.Coord
	size    units.ByteSize
	deliver func()
	start   units.Time

	arriveFn func() // bound f.arrive
	retryFn  func() // bound f.walk
}

// getFrame pops a recycled frame or builds a fresh one.
func (m *Mesh) getFrame() *frame {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return f
	}
	f := &frame{m: m}
	f.arriveFn = f.arrive
	f.retryFn = f.walk
	return f
}

// Route injects a message at src and delivers it at dst, walking the mesh
// hop by hop. deliver runs on arrival (may be nil).
func (m *Mesh) Route(src, dst topology.Coord, size units.ByteSize, deliver func()) {
	if !onMesh(src) || !onMesh(dst) {
		panic(fmt.Sprintf("router: route %v->%v off the mesh", src, dst))
	}
	f := m.getFrame()
	f.at, f.dst, f.size, f.deliver = src, dst, size, deliver
	f.start = m.eng.Now()
	f.walk()
}

// arrive moves the message onto the router its last send was bound for.
func (f *frame) arrive() {
	f.at = f.next
	f.walk()
}

// walk delivers the message if it is at its destination, and otherwise
// offers it to the XY hop, waiting and retrying from where it is when that
// port refuses.
func (f *frame) walk() {
	m := f.m
	if f.at == f.dst {
		m.delivered++
		m.latency.Record(m.eng.Now() - f.start)
		// Release first, so a deliver callback that routes again
		// synchronously reuses this frame.
		deliver := f.deliver
		f.deliver = nil
		m.free = append(m.free, f)
		if deliver != nil {
			deliver()
		}
		return
	}
	f.next = xyNext(f.at, f.dst)
	if m.edge(f.at, f.next).TrySend(f.size, f.arriveFn) {
		m.hops++
		return
	}
	// Wait for the wanted port, jittered around one serialization quantum.
	q := linkCapacity.TimeToSend(f.size)
	if q <= 0 {
		q = units.Nanosecond
	}
	backoff := q/2 + units.Time(m.rng.Int63n(int64(q)+1))
	m.eng.After(backoff, f.retryFn)
}

// Delivered reports completed messages.
func (m *Mesh) Delivered() uint64 { return m.delivered }

// Hops reports total edge traversals.
func (m *Mesh) Hops() uint64 { return m.hops }

// Latency reports the end-to-end delivery histogram.
func (m *Mesh) Latency() *telemetry.Histogram { return &m.latency }

// ResetStats clears counters (in-flight messages keep walking).
func (m *Mesh) ResetStats() {
	m.delivered, m.hops = 0, 0
	m.latency.Reset()
}

// Drive builds a mesh on eng and injects Poisson uniform-random cacheline
// traffic at the offered load, drawing pairs and gaps from rng. It warms
// the mesh for window/3, then measures for window and reports the
// achieved bandwidth and mean delivery latency.
func Drive(eng *sim.Engine, rng *sim.RNG, offered units.Bandwidth, window units.Time) (units.Bandwidth, units.Time) {
	m := New(eng)
	gap := units.Interval(units.CacheLine, offered)
	inFlight := 0
	done := func() { inFlight-- }
	var inject func()
	inject = func() {
		// Bound in-flight messages: an open loop at over-saturating load
		// would otherwise accumulate work (and events) without limit.
		// Saturated, pause injection instead of spinning the event
		// calendar at the (tiny) inter-arrival gap.
		if inFlight >= 512 {
			eng.After(50*units.Nanosecond, inject)
			return
		}
		src := topology.Coord{X: rng.Intn(width), Y: rng.Intn(height)}
		dst := topology.Coord{X: rng.Intn(width), Y: rng.Intn(height)}
		for dst == src {
			dst = topology.Coord{X: rng.Intn(width), Y: rng.Intn(height)}
		}
		inFlight++
		m.Route(src, dst, units.CacheLine, done)
		d := units.Time(math.Round(float64(gap) * rng.ExpFloat64()))
		if d < units.Picosecond {
			d = units.Picosecond
		}
		eng.After(d, inject)
	}
	eng.After(0, inject)
	eng.RunFor(window / 3)
	m.ResetStats()
	start := eng.Now()
	eng.RunFor(window)
	achieved := units.Rate(units.ByteSize(m.Delivered())*units.CacheLine, eng.Now()-start)
	return achieved, m.Latency().Mean()
}
