// Package accel models host/accelerator interaction over the chiplet
// network — the paper's research direction #4. "The accelerator execution
// is activated via submission commands and completed through
// acknowledgment responses, which are latency-sensitive. Bandwidth-
// intensive input/output data is copied to/from the accelerator memory
// explicitly through DMA... all such communications traverse the device
// bus, I/O hub, and I/O chiplet, which embody performance idiosyncrasies."
//
// An Accelerator hangs a device link off the I/O hub (the same path class
// as a P-link slot). Kernel submissions ride the signal plane: a doorbell
// MMIO write out, a completion record back. Kernel data rides the data
// plane: chunked, pipelined DMA between host DRAM and device memory,
// crossing the die's routing fabric and the device link. Both planes share
// links, so bulk DMA inflates doorbell and completion latency — the
// head-of-line problem intra-host switching is meant to solve. The
// PriorityLane option models that solution: a reserved control virtual
// channel that keeps the signal plane at its unloaded latency regardless
// of data-plane load.
package accel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/units"
)

// Config describes one accelerator and its attachment.
type Config struct {
	// Name prefixes the device's channel names.
	Name string
	// HostCCD is the compute chiplet running the driver (doorbells origin,
	// completions destination).
	HostCCD int
	// QueueDepth bounds in-flight kernels (submission queue entries).
	QueueDepth int
	// Link capacities and latency of the device link (P-link class).
	LinkToDevCap  units.Bandwidth
	LinkToHostCap units.Bandwidth
	LinkLatency   units.Time
	// LinkQueue bounds the to-device staging queue (the BDP boundary the
	// signal plane queues behind).
	LinkQueue int
	// DMAChunk is the data-plane transfer granularity (default 4 KiB).
	DMAChunk units.ByteSize
	// DoorbellSize and CompletionSize are the signal-plane message sizes.
	DoorbellSize   units.ByteSize
	CompletionSize units.ByteSize
	// PriorityLane gives the signal plane its own virtual channel on the
	// device link instead of sharing the data queue — the paper's
	// direction #4: an intra-host switching module that "provisions just
	// enough bandwidth" for the latency-sensitive plane. A sliver of link
	// capacity (1/16th) is reserved for it.
	PriorityLane bool
}

// DefaultConfig attaches a Gen4x16-class accelerator to chiplet 0.
func DefaultConfig() Config {
	return Config{
		Name:           "accel0",
		QueueDepth:     64,
		LinkToDevCap:   units.GBps(24),
		LinkToHostCap:  units.GBps(24),
		LinkLatency:    12 * units.Nanosecond,
		LinkQueue:      96,
		DMAChunk:       4 * units.KiB,
		DoorbellSize:   16,
		CompletionSize: 16,
	}
}

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
	cfg Config

	toDev  *link.Channel // doorbells, DMA reads' data toward the device
	toHost *link.Channel // completions, DMA writes' data toward host memory

	// Priority virtual channels for the signal plane (nil unless
	// Config.PriorityLane).
	ctlToDev  *link.Channel
	ctlToHost *link.Channel

	slots     *link.TokenPool // submission queue entries
	execFree  units.Time      // the single execution engine's availability
	doorbells telemetry.Histogram
	totals    telemetry.Histogram
}

// New attaches an accelerator to the network. The configuration is
// validated loudly: a silent zero capacity would masquerade as an
// infinitely fast link.
func New(net *core.Network, cfg Config) (*Accelerator, error) {
	if cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("accel: %s: non-positive queue depth", cfg.Name)
	}
	if cfg.LinkToDevCap <= 0 || cfg.LinkToHostCap <= 0 {
		return nil, fmt.Errorf("accel: %s: device link needs positive capacities", cfg.Name)
	}
	if cfg.HostCCD < 0 || cfg.HostCCD >= net.Profile().CCDs {
		return nil, fmt.Errorf("accel: %s: host chiplet %d out of range", cfg.Name, cfg.HostCCD)
	}
	if cfg.DMAChunk <= 0 {
		cfg.DMAChunk = 4 * units.KiB
	}
	if cfg.DoorbellSize <= 0 {
		cfg.DoorbellSize = 16
	}
	if cfg.CompletionSize <= 0 {
		cfg.CompletionSize = 16
	}
	eng := net.Engine()
	a := &Accelerator{
		net:    net,
		cfg:    cfg,
		toDev:  link.NewChannel(eng, cfg.Name+"/todev", cfg.LinkToDevCap, cfg.LinkLatency, cfg.LinkQueue),
		toHost: link.NewChannel(eng, cfg.Name+"/tohost", cfg.LinkToHostCap, cfg.LinkLatency, 0),
		slots:  link.NewTokenPool(eng, cfg.Name+"/sq", cfg.QueueDepth),
	}
	if cfg.PriorityLane {
		a.ctlToDev = link.NewChannel(eng, cfg.Name+"/ctl/todev",
			cfg.LinkToDevCap/16, cfg.LinkLatency, 0)
		a.ctlToHost = link.NewChannel(eng, cfg.Name+"/ctl/tohost",
			cfg.LinkToHostCap/16, cfg.LinkLatency, 0)
	}
	return a, nil
}

// signalToDev reports the channel doorbells ride.
func (a *Accelerator) signalToDev() *link.Channel {
	if a.ctlToDev != nil {
		return a.ctlToDev
	}
	return a.toDev
}

// signalToHost reports the channel completion records ride.
func (a *Accelerator) signalToHost() *link.Channel {
	if a.ctlToHost != nil {
		return a.ctlToHost
	}
	return a.toHost
}

// Doorbells reports the observed doorbell-latency histogram.
func (a *Accelerator) Doorbells() *telemetry.Histogram { return &a.doorbells }

// Totals reports the observed submit-to-notify histogram.
func (a *Accelerator) Totals() *telemetry.Histogram { return &a.totals }

// hubExtra is the deterministic walk from the host chiplet's GMI port to
// the device: switch hops, I/O hub, root complex.
func (a *Accelerator) hubExtra() units.Time {
	p := a.net.Profile()
	return a.net.NoC().IOHopDelay(a.cfg.HostCCD) + p.IOHubLatency + p.RootComplexLatency
}

// Submit launches one kernel from src and calls done with the phase
// timestamps when the completion record reaches the host.
func (a *Accelerator) Submit(src topology.CoreID, k Kernel, done func(Completion)) {
	if src.CCD != a.cfg.HostCCD {
		panic(fmt.Sprintf("accel: %s driven from ccd%d but attached to ccd%d",
			a.cfg.Name, src.CCD, a.cfg.HostCCD))
	}
	eng := a.net.Engine()
	p := a.net.Profile()
	var c Completion
	c.Submitted = eng.Now()
	// Doorbell: an MMIO write across the device path (latency-sensitive —
	// it shares every queue with the data plane).
	a.net.SendWithRetry(a.net.GMIOut(src.CCD), a.cfg.DoorbellSize, 0, func() {
		a.net.SendWithRetry(a.net.NoC().Write, a.cfg.DoorbellSize, a.hubExtra(), func() {
			a.net.SendWithRetry(a.signalToDev(), a.cfg.DoorbellSize, 0, func() {
				c.Accepted = eng.Now()
				a.doorbells.Record(c.DoorbellLatency())
				a.slots.Acquire(func() {
					a.dmaIn(k, func() {
						// Execute on the single engine, FIFO.
						start := eng.Now()
						if a.execFree > start {
							start = a.execFree
						}
						c.Started = start
						a.execFree = start + k.Exec
						eng.At(a.execFree, func() {
							c.Executed = eng.Now()
							a.dmaOut(k, func() {
								c.Drained = eng.Now()
								// Completion record back to the host core.
								a.signalToHost().Send(a.cfg.CompletionSize, func() {
									a.net.NoC().Read.Send(a.cfg.CompletionSize, func() {
										a.net.GMIIn(src.CCD).Send(p.WriteAckSize, func() {
											c.Notified = eng.Now()
											a.slots.Release()
											a.totals.Record(c.Total())
											if done != nil {
												done(c)
											}
										})
									})
								})
							})
						})
					})
				})
			})
		})
	})
}

// dmaIn streams k.DMAIn bytes from host memory to the device, chunk by
// chunk: each chunk leaves a UMC read channel, crosses the die outward,
// and serializes onto the device link.
func (a *Accelerator) dmaIn(k Kernel, then func()) {
	a.dma(k.DMAIn, k.InputUMC, true, then)
}

// dmaOut streams k.DMAOut bytes from the device to host memory.
func (a *Accelerator) dmaOut(k Kernel, then func()) {
	a.dma(k.DMAOut, k.OutputUMC, false, then)
}

// dma streams total bytes between host channel umc and the device in
// DMAChunk units. Chunks are pipelined: the next chunk enters the source
// leg as soon as the previous one clears it, so the slowest leg sets the
// rate and downstream queues stay occupied — which is exactly what makes
// bulk DMA block the signal plane behind it.
func (a *Accelerator) dma(total units.ByteSize, umc int, toDevice bool, then func()) {
	if total <= 0 {
		then()
		return
	}
	dram := a.net.DRAM(umc)
	hops := a.net.NoC().HopDelay(a.net.Profile().BaseSHops)
	chunks := int((total + a.cfg.DMAChunk - 1) / a.cfg.DMAChunk)
	pending := chunks
	// inFlight bounds the pipeline: the DMA engine's scatter-gather ring
	// holds a fixed number of outstanding descriptors. Without the bound,
	// a fast source leg would pile the whole transfer into the slowest
	// link's backlog.
	const ring = 16
	inFlight := 0
	remaining := total
	idx := 0
	var pump func()
	delivered := func() {
		pending--
		inFlight--
		if pending == 0 {
			then()
			return
		}
		pump()
	}
	pump = func() {
		for inFlight < ring && remaining > 0 {
			chunk := a.cfg.DMAChunk
			if chunk > remaining {
				chunk = remaining
			}
			remaining -= chunk
			idx++
			inFlight++
			if toDevice {
				// Host DRAM -> mesh -> device link.
				dram.Read.Send(chunk, func() {
					a.net.SendWithRetry(a.net.NoC().Write, chunk, hops, func() {
						a.net.SendWithRetry(a.toDev, chunk, 0, delivered)
					})
				})
				continue
			}
			// Device -> mesh -> host DRAM.
			a.toHost.Send(chunk, func() {
				a.net.SendWithRetry(a.net.NoC().Write, chunk, hops, func() {
					dram.Write.Send(chunk, delivered)
				})
			})
		}
	}
	pump()
}
