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

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/units"
)

// Config sizes a mesh.
type Config struct {
	Width, Height int
	// LinkCapacity is each directed edge's bandwidth.
	LinkCapacity units.Bandwidth
	// HopLatency is each edge's propagation delay.
	HopLatency units.Time
	// QueueDepth bounds each edge's staging queue (default 8).
	QueueDepth int
}

// Mesh is a running router network.
type Mesh struct {
	eng *sim.Engine
	cfg Config
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
func (m *Mesh) node(c topology.Coord) int { return c.X*m.cfg.Height + c.Y }

// onMesh reports whether c is one of the mesh's routers.
func (m *Mesh) onMesh(c topology.Coord) bool {
	return c.X >= 0 && c.X < m.cfg.Width && c.Y >= 0 && c.Y < m.cfg.Height
}

// New builds the mesh. Dimensions must be positive; capacity must be
// positive (an infinite-capacity mesh would validate nothing).
func New(eng *sim.Engine, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("router: bad mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.LinkCapacity <= 0 {
		panic("router: non-positive link capacity")
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 8
	}
	m := &Mesh{eng: eng, cfg: cfg, rng: eng.Rand(), ports: make([][]port, cfg.Width*cfg.Height)}
	for x := 0; x < cfg.Width; x++ {
		for y := 0; y < cfg.Height; y++ {
			at := topology.Coord{X: x, Y: y}
			for _, d := range directions {
				nb := topology.Coord{X: x + d.X, Y: y + d.Y}
				if !m.onMesh(nb) {
					continue
				}
				name := fmt.Sprintf("edge%v->%v", at, nb)
				ch := link.NewChannel(eng, name, cfg.LinkCapacity, cfg.HopLatency, depth)
				m.ports[m.node(at)] = append(m.ports[m.node(at)], port{to: nb, ch: ch})
			}
		}
	}
	return m
}

// edge reports the channel from at to its neighbour nb.
func (m *Mesh) edge(at, nb topology.Coord) *link.Channel {
	for _, p := range m.ports[m.node(at)] {
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
	if !m.onMesh(src) || !m.onMesh(dst) {
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
	q := m.cfg.LinkCapacity.TimeToSend(f.size)
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

// BisectionBandwidth reports the mesh's theoretical bisection limit: the
// capacity crossing the narrower middle cut, both directions, a standard
// upper bound on uniform-random throughput. The cut across the longer
// dimension crosses min(Width, Height) links each way.
func (m *Mesh) BisectionBandwidth() units.Bandwidth {
	return units.Bandwidth(2*min(m.cfg.Width, m.cfg.Height)) * m.cfg.LinkCapacity
}
