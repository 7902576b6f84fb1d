package topology

import (
	"fmt"

	"repro/internal/units"
)

// Profile carries everything the simulator needs to know about one
// platform: the structural facts of the paper's Table 1, the per-hop
// latencies of Table 2, the link-capacity ceilings implied by Table 3, and
// the queueing/adaptation constants implied by §3.4–§3.5.
//
// Every field is documented with the paper evidence it is calibrated from.
type Profile struct {
	// Identification (Table 1).
	Name      string // marketing name, e.g. "EPYC 7302"
	Microarch string // "Zen 2", "Zen 4"

	// Cache sizes (Table 1).
	L1PerCore units.ByteSize
	L2PerCore units.ByteSize
	L3PerCPU  units.ByteSize

	// Chiplet structure (Table 1): cores, core complexes and compute
	// chiplets per CPU. CoresPerCCX() and CCXPerCCD() must divide evenly.
	Cores int
	CCXs  int
	CCDs  int

	// Process technology and I/O capability (Table 1).
	ComputeNode string // e.g. "7nm"
	IONode      string // e.g. "12nm"
	PCIeGen     int
	PCIeLanes   int
	BaseFreqGHz float64
	TurboGHz    float64

	// Memory system population.
	UMCChannels int // DDR channels (= UMCs) on the I/O die
	CXLModules  int // CXL.mem expansion modules (0 when absent)

	// Cache access latencies (Table 2, "Compute Chiplet" rows).
	L1Latency units.Time
	L2Latency units.Time
	L3Latency units.Time

	// Data-path latency components (Table 2, "I/O Chiplet" and
	// "Memory/Device" rows). The near-DIMM latency decomposes as
	//   CacheMissBase + GMILinkLatency + BaseSHops*SHopLatency
	//   + CSLatency + DRAMLatency
	// and each extra mesh hop (Vertical/Horizontal/Diagonal positions)
	// adds one SHopLatency.
	CacheMissBase      units.Time // issue through L3 miss + cache-coherent master
	GMILinkLatency     units.Time // compute die <-> I/O die crossing
	SHopLatency        units.Time // one mesh switch hop (~8ns / ~4ns)
	BaseSHops          int        // hops traversed even for a near UMC
	CSLatency          units.Time // coherent station
	DRAMLatency        units.Time // UMC queue + DRAM array + data return
	IOHubLatency       units.Time // I/O hub crossing (~15ns both platforms)
	RootComplexLatency units.Time // PCIe root complex + I/O moderator
	PLinkLatency       units.Time // P link crossing to the CXL slot
	CXLDeviceLatency   units.Time // CXL controller + far memory + return

	// Service-time jitter: banks, refresh, and scheduler variance give the
	// latency distribution its tail (Fig 3 reports P999). Every DRAM/CXL
	// access adds Exp(mean=DRAMJitterMean); with probability TailSpikeProb
	// it also collides with a refresh-like stall of TailSpikeDelay.
	DRAMJitterMean units.Time
	TailSpikeProb  float64
	TailSpikeDelay units.Time

	// Memory-level parallelism windows (Table 3 "From Core" rows, via
	// Little's law: BW = window * 64B / round-trip latency).
	CoreReadMSHRs  int // outstanding demand-read misses per core
	CoreWriteWCBs  int // write-combining buffers per core (NT writes)
	CoreLLCWindow  int // outstanding LLC/intra-chiplet accesses per core
	CoreCXLReads   int // outstanding CXL reads per core
	CoreCXLWrites  int // outstanding CXL writes per core
	CCDDevReadCrd  int // per-CCD credit pool for device-bound reads (P link BDP)
	CCDDevWriteCrd int // per-CCD credit pool for device-bound writes

	// Intra-chiplet traffic-control module (§3.2): a queueless token
	// structure bounding outstanding requests per CCX and (on the 7302)
	// per CCD. Token exhaustion manifests as the Table 2 "Max CCX Q" /
	// "Max CCD Q" delays.
	CCXTokens int
	CCDTokens int // 0 = no per-CCD stage (EPYC 9634)

	// Directional link capacities (Table 3 ceilings and Fig 6 saturation
	// points). "Read" is the data-return direction toward the cores,
	// "Write" the data-out direction toward memory/devices.
	IntraCCReadCap  units.Bandwidth // within a compute chiplet (IF/L3 fabric)
	IntraCCWriteCap units.Bandwidth
	GMIReadCap      units.Bandwidth // per compute chiplet to the I/O die
	GMIWriteCap     units.Bandwidth
	UMCReadCap      units.Bandwidth // per memory channel
	UMCWriteCap     units.Bandwidth
	NoCReadCap      units.Bandwidth // whole-I/O-die routing capacity
	NoCWriteCap     units.Bandwidth
	PLinkReadCap    units.Bandwidth // per CXL module path (P link + lanes)
	PLinkWriteCap   units.Bandwidth

	// Base transfer latencies for cache-to-cache traffic over the
	// Infinity Fabric (Fig 3 scenarios a–c): within a compute chiplet
	// (CCX-to-CCX on the 7302, within the single 7-core CCX on the 9634)
	// and across compute chiplets through the I/O die.
	IntraCCLatency units.Time
	InterCCLatency units.Time

	// Queue depths, in messages, at each BDP boundary (§3.4): how much a
	// link direction buffers before backpressure stalls senders. Deeper
	// queues mean higher tail inflation before the sender feels the wall —
	// the 9634's GMI write queue is the extreme case (Fig 3-e: average
	// write latency climbs from 144 ns to 696 ns at saturation). The
	// core-bound read directions of the intra-chiplet fabric and GMI carry
	// only responses, which are never refused, so they have no depth.
	IntraCCWriteQueue int
	GMIWriteQueue     int
	NoCReadQueue      int
	NoCWriteQueue     int

	// Injection-window adaptation epochs (§3.5 / Fig 5): how often a
	// sender's credit window ramps after bandwidth frees up. The paper
	// observed ~100 ms (IF) and ~500 ms (P link) harvest delays on the
	// 9634; these constants express the same ramp at the simulator's time
	// scale (see harness.Figure5 for the scale mapping).
	IFAdaptEpoch    units.Time
	PLinkAdaptEpoch units.Time

	// Harvest ramp slopes: how much additional rate a sender's link-credit
	// governor grants per adaptation epoch once its current allocation is
	// saturated. Together with the epochs above these reproduce Fig 5's
	// harvesting delays: ~2 GB/s of freed bandwidth is reclaimed in
	// 2/HarvestRampIF epochs.
	HarvestRampIF    units.Bandwidth
	HarvestRampPLink units.Bandwidth

	// OscillatoryIntraCC reproduces the EPYC 7302's drastic IF bandwidth
	// variation under fluctuating demand (Fig 5), which the paper
	// attributes to the intra-CC queueing module: the token regulator
	// over-corrects instead of converging.
	OscillatoryIntraCC bool

	// Control-message sizes on the transaction layer: a read request
	// carries address+command, a write completion carries an ack.
	ReadRequestSize units.ByteSize
	WriteAckSize    units.ByteSize

	// CXLFlitSize is the FLIT framing on the CXL path (§2.3: 68 B or
	// 256 B). A 64 B cacheline rides one 68 B flit, costing ~6% efficiency.
	CXLFlitSize units.ByteSize

	// PositionExtraHops calibrates how many mesh switch hops each Table 2
	// position class adds beyond the near path. Derived from the Table 2
	// latency gradients divided by SHopLatency: {0,1,2,3} on the 7302
	// (124/131/138/145 ns at 7 ns hops), {0,1,2,2} on the 9634
	// (141/145/149/149 ns at 4 ns hops).
	PositionExtraHops [4]int
}

// CoresPerCCX reports how many cores share one L3 complex.
func (p *Profile) CoresPerCCX() int { return p.Cores / p.CCXs }

// CCXPerCCD reports how many core complexes one compute chiplet holds.
func (p *Profile) CCXPerCCD() int { return p.CCXs / p.CCDs }

// CoresPerCCD reports how many cores one compute chiplet holds.
func (p *Profile) CoresPerCCD() int { return p.Cores / p.CCDs }

// L3PerCCX reports the LLC slice capacity shared by one core complex.
func (p *Profile) L3PerCCX() units.ByteSize {
	return p.L3PerCPU / units.ByteSize(p.CCXs)
}

// Validate checks the structural invariants a profile must satisfy before
// a network can be built from it.
func (p *Profile) Validate() error {
	switch {
	case p.Cores <= 0 || p.CCXs <= 0 || p.CCDs <= 0:
		return fmt.Errorf("topology: %s: non-positive core/CCX/CCD counts", p.Name)
	case p.Cores%p.CCXs != 0:
		return fmt.Errorf("topology: %s: %d cores do not divide into %d CCXs", p.Name, p.Cores, p.CCXs)
	case p.CCXs%p.CCDs != 0:
		return fmt.Errorf("topology: %s: %d CCXs do not divide into %d CCDs", p.Name, p.CCXs, p.CCDs)
	case p.CCDs%2 != 0:
		return fmt.Errorf("topology: %s: odd CCD count breaks the two-row node grid", p.Name)
	case p.UMCChannels <= 0:
		return fmt.Errorf("topology: %s: no memory channels", p.Name)
	case p.UMCChannels%p.CCDs != 0:
		return fmt.Errorf("topology: %s: %d channels do not spread evenly over %d nodes", p.Name, p.UMCChannels, p.CCDs)
	case p.CoreReadMSHRs <= 0 || p.CoreWriteWCBs <= 0:
		return fmt.Errorf("topology: %s: core windows must be positive", p.Name)
	case p.CCXTokens <= 0:
		return fmt.Errorf("topology: %s: CCX token pool must be positive", p.Name)
	case p.CXLModules > 0 && (p.CoreCXLReads <= 0 || p.PLinkReadCap <= 0):
		return fmt.Errorf("topology: %s: CXL present but CXL parameters unset", p.Name)
	case p.CXLModules > 0 && p.CXLFlitSize < units.CacheLine:
		return fmt.Errorf("topology: %s: CXL flit smaller than a cacheline", p.Name)
	}
	for i := 1; i < len(p.PositionExtraHops); i++ {
		if p.PositionExtraHops[i] < p.PositionExtraHops[0] {
			return fmt.Errorf("topology: %s: position class %v nearer than near", p.Name, Position(i))
		}
	}
	return nil
}

// NodeCols reports the number of columns on the I/O-die node grid. GMI
// ports and UMCs share a grid of NodeCols x 2 attachment nodes, one GMI
// port per node.
func (p *Profile) NodeCols() int { return p.CCDs / 2 }

// ChannelsPerNode reports how many memory channels attach at one grid
// node (2 on the EPYC 7302's 8-channel/4-CCD die, 1 on the 9634's
// 12-channel/12-CCD die).
func (p *Profile) ChannelsPerNode() int { return p.UMCChannels / p.CCDs }

// CCDNode reports the grid node where compute chiplet ccd's GMI port
// attaches: even chiplets on row 0, odd on row 1, filling columns left to
// right, mirroring the EPYC quadrant layout.
func (p *Profile) CCDNode(ccd int) Coord {
	if ccd < 0 || ccd >= p.CCDs {
		panic(fmt.Sprintf("topology: node for non-existent CCD %d", ccd))
	}
	return Coord{X: ccd / 2, Y: ccd % 2}
}

// UMCNode reports the grid node where memory channel umc attaches.
func (p *Profile) UMCNode(umc int) Coord {
	if umc < 0 || umc >= p.UMCChannels {
		panic(fmt.Sprintf("topology: node for non-existent channel %d", umc))
	}
	node := umc / p.ChannelsPerNode()
	return Coord{X: node / 2, Y: node % 2}
}

// IOHubNode reports the grid node of the I/O hub, the front door to the
// PCIe/CXL devices: mid-die on row 0, matching where the fast P-link
// slots hang off EPYC I/O dies.
func (p *Profile) IOHubNode() Coord {
	return Coord{X: p.NodeCols() / 2, Y: 0}
}

// classify maps a relative node displacement to a Table 2 position class.
func classify(a, b Coord) Position {
	switch dx, dy := abs(a.X-b.X), abs(a.Y-b.Y); {
	case dx == 0 && dy == 0:
		return Near
	case dx == 0:
		return Vertical
	case dy == 0:
		return Horizontal
	default:
		return Diagonal
	}
}

// PositionOf classifies memory channel umc's location relative to compute
// chiplet ccd, per the paper's Table 2 terminology.
func (p *Profile) PositionOf(ccd, umc int) Position {
	return classify(p.CCDNode(ccd), p.UMCNode(umc))
}

// ExtraHops reports the additional mesh switch hops a request from ccd
// traverses to reach a channel in the given position class, beyond the
// BaseSHops every memory access pays.
func (p *Profile) ExtraHops(pos Position) int {
	return p.PositionExtraHops[pos] - p.PositionExtraHops[Near]
}

// MemoryHops reports the total mesh switch hops from ccd's GMI port to
// memory channel umc.
func (p *Profile) MemoryHops(ccd, umc int) int {
	return p.BaseSHops + p.ExtraHops(p.PositionOf(ccd, umc))
}

// IOHubHops reports the mesh switch hops from ccd's GMI port to the I/O
// hub, the first leg of every device access.
func (p *Profile) IOHubHops(ccd int) int {
	return p.BaseSHops + p.ExtraHops(classify(p.CCDNode(ccd), p.IOHubNode()))
}

// UMCAtPosition reports the lowest-numbered memory channel at the given
// position class relative to ccd; ok is false when the class is empty
// (possible on degenerate synthetic profiles, never on the shipped ones).
func (p *Profile) UMCAtPosition(ccd int, pos Position) (umc int, ok bool) {
	for u := 0; u < p.UMCChannels; u++ {
		if p.PositionOf(ccd, u) == pos {
			return u, true
		}
	}
	return -1, false
}

// UMCSet reports the memory channels interleaved by an allocation homed on
// the NUMA node containing ccd, under the given NPS configuration. NPS1
// stripes across every channel; NPS2 across the chiplet's half of the die
// (matching column halves); NPS4 across the chiplet's quadrant (column
// half plus matching row).
func (p *Profile) UMCSet(nps NPS, ccd int) []int {
	g := p.CCDNode(ccd)
	var set []int
	for u := 0; u < p.UMCChannels; u++ {
		c := p.UMCNode(u)
		switch nps {
		case NPS1:
			set = append(set, u)
		case NPS2:
			if sameHalf(g.X, c.X, p.NodeCols()) {
				set = append(set, u)
			}
		case NPS4:
			if sameHalf(g.X, c.X, p.NodeCols()) && c.Y == g.Y {
				set = append(set, u)
			}
		default:
			panic(fmt.Sprintf("topology: unsupported NPS configuration %d", int(nps)))
		}
	}
	return set
}

func sameHalf(a, b, cols int) bool {
	return (a < (cols+1)/2) == (b < (cols+1)/2)
}
