// Package accel models host/accelerator interaction over the chiplet
// network — the paper's research direction #4. "The accelerator execution
// is activated via submission commands and completed through
// acknowledgment responses, which are latency-sensitive. Bandwidth-
// intensive input/output data is copied to/from the accelerator memory
// explicitly through DMA... all such communications traverse the device
// bus, I/O hub, and I/O chiplet, which embody performance idiosyncrasies."
//
// An Accelerator hangs a device link off the I/O hub (the same path class
// as a P-link slot; core.Network.AttachDevice), and every message it sends
// rides the network's transaction walker. Kernel submissions ride the
// signal plane: a core.DestDevice doorbell out, a completion record
// (Network.Notify) back. Kernel data rides the data plane: chunked,
// pipelined DMA (Network.DMA) between host DRAM and device memory, crossing
// the die's routing fabric and the device link. Both planes share links,
// so bulk DMA inflates doorbell and completion latency — the head-of-line
// problem intra-host switching is meant to solve. New's priorityLane flag
// models that solution: a reserved control virtual channel that keeps the
// signal plane at its unloaded latency regardless of data-plane load.
package accel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/txn"
	"repro/internal/units"
)

// The one attachment modelled: a Gen4x16-class accelerator whose driver
// runs on chiplet 0.
const (
	// devName prefixes the device's channel names.
	devName = "accel0"
	// hostCCD is the compute chiplet running the driver (doorbells origin,
	// completions destination).
	hostCCD = 0
	// queueDepth bounds in-flight kernels (submission queue entries).
	queueDepth = 64
	// Capacities and latency of the device link (P-link class).
	linkToDevCap  = 24 * units.Bandwidth(units.GB)
	linkToHostCap = 24 * units.Bandwidth(units.GB)
	linkLatency   = 12 * units.Nanosecond
	// linkQueue bounds the to-device staging queue (the BDP boundary the
	// signal plane queues behind).
	linkQueue = 96
	// dmaChunk is the data-plane transfer granularity.
	dmaChunk = 4 * units.KiB
	// dmaRing bounds a DMA phase's chunks in flight, as the DMA engine's
	// scatter-gather ring does: without it a fast source leg would pile the
	// whole transfer into the slowest link's backlog.
	dmaRing = 16
)

// Kernel describes one offloaded task.
type Kernel struct {
	// Exec is the on-device execution time once inputs are resident.
	Exec units.Time
	// DMAIn and DMAOut are the input/output volumes copied over the data
	// plane before/after execution.
	DMAIn  units.ByteSize
	DMAOut units.ByteSize
	// InputUMC/OutputUMC are the host memory channels the DMA engine
	// targets.
	InputUMC  int
	OutputUMC int
}

// Completion carries the phase timestamps of one finished kernel.
type Completion struct {
	Submitted units.Time // doorbell issued by the core
	Accepted  units.Time // doorbell arrived at the device (signal plane)
	Started   units.Time // inputs resident, execution began
	Executed  units.Time // execution finished
	Drained   units.Time // outputs written back to host memory
	Notified  units.Time // completion record reached the host core
}

// DoorbellLatency is the submission signal-plane delay.
func (c Completion) DoorbellLatency() units.Time { return c.Accepted - c.Submitted }

// Total is submission to notification.
func (c Completion) Total() units.Time { return c.Notified - c.Submitted }

// Accelerator is one device instance attached to a network.
type Accelerator struct {
	net *core.Network

	toDev  *link.Channel // doorbells, DMA reads' data toward the device
	toHost *link.Channel // completions, DMA writes' data toward host memory

	// Priority virtual channels for the signal plane (nil without the
	// priority lane).
	ctlToDev  *link.Channel
	ctlToHost *link.Channel

	slots     *link.TokenPool // submission queue entries
	execFree  units.Time      // the single execution engine's availability
	doorbells telemetry.Histogram
	totals    telemetry.Histogram

	free []*kernel // recycled kernel frames
}

// New attaches an accelerator to the network. With priorityLane the
// signal plane gets its own virtual channel on the device link instead of
// sharing the data queue — the paper's direction #4: an intra-host
// switching module that "provisions just enough bandwidth" for the
// latency-sensitive plane. A sliver of link capacity (1/16th) is reserved
// for it.
func New(net *core.Network, priorityLane bool) *Accelerator {
	eng := net.Engine()
	a := &Accelerator{
		net:    net,
		toDev:  link.NewChannel(eng, devName+"/todev", linkToDevCap, linkLatency, linkQueue),
		toHost: link.NewChannel(eng, devName+"/tohost", linkToHostCap, linkLatency, 0),
		slots:  link.NewTokenPool(eng, devName+"/sq", queueDepth),
	}
	if priorityLane {
		a.ctlToDev = link.NewChannel(eng, devName+"/ctl/todev",
			linkToDevCap/16, linkLatency, 0)
		a.ctlToHost = link.NewChannel(eng, devName+"/ctl/tohost",
			linkToHostCap/16, linkLatency, 0)
	}
	net.AttachDevice(a.toDev, a.toHost, a.ctlToDev, a.ctlToHost)
	return a
}

// Doorbells reports the observed doorbell-latency histogram.
func (a *Accelerator) Doorbells() *telemetry.Histogram { return &a.doorbells }

// Totals reports the observed submit-to-notify histogram.
func (a *Accelerator) Totals() *telemetry.Histogram { return &a.totals }

// Submit launches one kernel from src and calls done with the phase
// timestamps when the completion record reaches the host.
func (a *Accelerator) Submit(src topology.CoreID, k Kernel, done func(Completion)) {
	if src.CCD != hostCCD {
		panic(fmt.Sprintf("accel: %s driven from ccd%d but attached to ccd%d",
			devName, src.CCD, hostCCD))
	}
	var f *kernel
	if n := len(a.free); n > 0 {
		f, a.free = a.free[n-1], a.free[:n-1]
	} else {
		f = &kernel{a: a}
		f.stepFn, f.rungFn = f.step, f.rung
	}
	f.k, f.done = k, done
	f.c = Completion{Submitted: a.net.Engine().Now()}
	f.state = kSlot
	// The doorbell: latency-sensitive, and without the priority lane it
	// shares every queue with the data plane.
	a.net.Issue(core.Access{Src: src, Op: txn.NTWrite, Kind: core.DestDevice}, nil, f.rungFn)
}

// kernel is one submitted kernel's frame. Its phases (queue slot, DMA in,
// execution, DMA out, completion record) run as one bound step that every
// slot grant, DMA chunk delivery, execution timer and completion record
// resumes. Frames are recycled, so a warm Submit allocates nothing.
type kernel struct {
	a     *Accelerator
	k     Kernel
	c     Completion
	done  func(Completion)
	state int

	// The DMA phase in progress: bytes not yet issued, chunks in flight.
	remaining units.ByteSize
	inFlight  int

	stepFn func()                 // bound step
	rungFn func(*txn.Transaction) // bound rung: the doorbell's done
}

// Kernel phases: the state a frame's next step runs in.
const (
	kSlot     = iota // doorbell accepted: waiting for a queue slot
	kDMAIn           // slot held: input chunks in flight
	kExecuted        // inputs resident: on the execution engine
	kDMAOut          // executed: output chunks in flight
	kNotified        // outputs drained: completion record in flight
)

// rung runs when the doorbell reaches the device: the kernel is accepted
// and queues for a submission slot.
func (f *kernel) rung(t *txn.Transaction) {
	f.c.Accepted = t.Completed
	f.a.doorbells.Record(f.c.DoorbellLatency())
	f.a.slots.Acquire(f.stepFn)
}

// step advances the kernel. A DMA phase streams its volume in dmaChunk
// chunks, pipelined: each delivery launches the next chunk, so the slowest
// leg sets the rate and downstream queues stay occupied — which is exactly
// what makes bulk DMA block the signal plane behind it.
func (f *kernel) step() {
	a := f.a
	eng := a.net.Engine()
	switch f.state {
	case kSlot:
		f.state, f.remaining = kDMAIn, f.k.DMAIn
	case kDMAIn, kDMAOut:
		f.inFlight--
	case kExecuted:
		f.c.Executed = eng.Now()
		f.state, f.remaining = kDMAOut, f.k.DMAOut
	case kNotified:
		f.c.Notified = eng.Now()
		a.slots.Release()
		a.totals.Record(f.c.Total())
		c, done := f.c, f.done
		f.done = nil
		a.free = append(a.free, f)
		if done != nil {
			done(c)
		}
		return
	}
	umc, toDevice := f.k.OutputUMC, f.state == kDMAIn
	if toDevice {
		umc = f.k.InputUMC
	}
	for f.inFlight < dmaRing && f.remaining > 0 {
		chunk := min(dmaChunk, f.remaining)
		f.remaining -= chunk
		f.inFlight++
		a.net.DMA(umc, chunk, toDevice, f.stepFn)
	}
	if f.inFlight > 0 {
		return
	}
	if toDevice {
		// Inputs resident: execute on the single engine, FIFO.
		f.c.Started = max(eng.Now(), a.execFree)
		a.execFree = f.c.Started + f.k.Exec
		f.state = kExecuted
		eng.At(a.execFree, f.stepFn)
		return
	}
	f.c.Drained = eng.Now()
	f.state = kNotified
	a.net.Notify(hostCCD, f.stepFn)
}
