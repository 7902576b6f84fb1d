package topology

import "repro/internal/units"

// EPYC7302 returns the calibrated profile of the paper's first platform: a
// Zen 2 EPYC 7302 (Dell 7525), 16 cores in 8 two-core CCXs across 4
// compute chiplets, 8 DDR4 channels, no CXL.
//
// Calibration notes (paper evidence in parentheses):
//   - near-DIMM latency decomposes 40+9+2*7+4+48 = 115 ns of fixed hops
//     plus ~9 ns of serialization and mean jitter = 124 ns (Table 2);
//   - the ~8 ns switch hop is modelled at 7 ns so the vertical/diagonal
//     gradients land on 131/145 ns exactly (Table 2);
//   - per-core read window 29 lines gives 29*64B/124ns = 14.97 GB/s
//     (Table 3 "From Core" 14.9); 7 write-combining buffers give
//     7*64B/124ns = 3.6 GB/s (Table 3);
//   - the 53-token CCX pool yields the "From CCX" 25.1 GB/s plateau and
//     the Table 2 "Max CCX Q" 30 ns token-wait;
//   - GMI read 32.5, UMC 21.1/19.0, NoC 106.7/55.1 GB/s ceilings are the
//     Table 3 plateaus.
func EPYC7302() *Profile {
	return &Profile{
		Name:      "EPYC 7302",
		Microarch: "Zen 2",

		L1PerCore: 32 * units.KiB,
		L2PerCore: 512 * units.KiB,
		L3PerCPU:  128 * units.MiB,

		Cores: 16,
		CCXs:  8,
		CCDs:  4,

		ComputeNode: "7nm",
		IONode:      "12nm",
		PCIeGen:     4,
		PCIeLanes:   128,
		BaseFreqGHz: 3.0,
		TurboGHz:    3.3,

		UMCChannels: 8,
		CXLModules:  0,

		L1Latency: units.Nanos(1.24),
		L2Latency: units.Nanos(5.66),
		L3Latency: units.Nanos(34.3),

		CacheMissBase:      40 * units.Nanosecond,
		GMILinkLatency:     9 * units.Nanosecond,
		SHopLatency:        7 * units.Nanosecond,
		BaseSHops:          2,
		CSLatency:          4 * units.Nanosecond,
		DRAMLatency:        48 * units.Nanosecond,
		IOHubLatency:       15 * units.Nanosecond,
		RootComplexLatency: 10 * units.Nanosecond,
		PLinkLatency:       12 * units.Nanosecond,
		CXLDeviceLatency:   0,

		DRAMJitterMean: 2 * units.Nanosecond,
		TailSpikeProb:  0.0015,
		TailSpikeDelay: 350 * units.Nanosecond,

		CoreReadMSHRs: 29,
		CoreWriteWCBs: 7,
		CoreLLCWindow: 24,

		CCXTokens: 53,
		CCDTokens: 98,

		IntraCCReadCap:  units.GBps(80),
		IntraCCWriteCap: units.GBps(80),
		GMIReadCap:      units.GBps(32.5),
		GMIWriteCap:     units.GBps(25),
		UMCReadCap:      units.GBps(21.1),
		UMCWriteCap:     units.GBps(19.0),
		NoCReadCap:      units.GBps(106.7),
		NoCWriteCap:     units.GBps(55.1),

		IntraCCLatency: units.Nanos(141),
		InterCCLatency: units.Nanos(134),

		IntraCCWriteQueue: 32,
		GMIWriteQueue:     100,
		NoCReadQueue:      128,
		NoCWriteQueue:     128,

		IFAdaptEpoch:  20 * units.Microsecond,
		HarvestRampIF: units.GBps(0.3),

		OscillatoryIntraCC: true,

		ReadRequestSize: 16,
		WriteAckSize:    8,
		CXLFlitSize:     68,

		PositionExtraHops: [4]int{0, 1, 2, 3},
	}
}

// EPYC9634 returns the calibrated profile of the paper's second platform:
// a Zen 4 EPYC 9634 (Supermicro 1U), 84 cores in 12 seven-core CCXs (one
// per compute chiplet), 12 DDR5 channels, and four Micron CZ120 CXL.mem
// modules behind the P links.
//
// Calibration notes:
//   - near-DIMM latency decomposes 46+9+2*4+4+67 = 134 ns of fixed hops
//     plus ~7 ns of serialization and mean jitter = 141 ns; a CXL access
//     46+9+4*4+15+10+12+126 = 234 ns + ~9 ns = 243 ns (Table 2);
//   - per-core windows: 32 read MSHRs -> 14.5 GB/s, 8 WC buffers ->
//     3.6 GB/s (paper: 3.3; 8 buffers lets a 7-core CCX oversubscribe its
//     GMI write direction, which Fig 3-e requires), 20 CXL reads ->
//     5.3 GB/s, 11 CXL writes -> 2.9 GB/s (Table 3 "From Core");
//   - the per-CCD device credit pools (90 read / 60 write) reproduce the
//     Table 3 CCX-to-CXL plateaus 23.7/15.8 GB/s — the P-link BDP wall;
//   - GMI 35.2/23.8, UMC 34.9/28.3, NoC 366.2/270.6, P-link (per module)
//     23.4/23.3 GB/s raw ceilings are the Table 3 plateaus (P-link raw
//     rate carries 68 B flits per 64 B payload);
//   - the seven-core CCX can oversubscribe its intra-chiplet fabric
//     (Fig 3-b's 2x latency knee): 33/30 GB/s directional caps;
//   - the very deep GMI write queue reproduces Fig 3-e's 695.8 ns
//     saturated write average.
func EPYC9634() *Profile {
	return &Profile{
		Name:      "EPYC 9634",
		Microarch: "Zen 4",

		L1PerCore: 64 * units.KiB,
		L2PerCore: 1 * units.MiB,
		L3PerCPU:  384 * units.MiB,

		Cores: 84,
		CCXs:  12,
		CCDs:  12,

		ComputeNode: "5nm",
		IONode:      "6nm",
		PCIeGen:     5,
		PCIeLanes:   128,
		BaseFreqGHz: 2.25,
		TurboGHz:    3.7,

		UMCChannels: 12,
		CXLModules:  4,

		L1Latency: units.Nanos(1.19),
		L2Latency: units.Nanos(7.51),
		L3Latency: units.Nanos(40.8),

		CacheMissBase:      46 * units.Nanosecond,
		GMILinkLatency:     9 * units.Nanosecond,
		SHopLatency:        4 * units.Nanosecond,
		BaseSHops:          2,
		CSLatency:          4 * units.Nanosecond,
		DRAMLatency:        67 * units.Nanosecond,
		IOHubLatency:       15 * units.Nanosecond,
		RootComplexLatency: 10 * units.Nanosecond,
		PLinkLatency:       12 * units.Nanosecond,
		CXLDeviceLatency:   126 * units.Nanosecond,

		DRAMJitterMean: 2 * units.Nanosecond,
		TailSpikeProb:  0.0015,
		TailSpikeDelay: 230 * units.Nanosecond,

		CoreReadMSHRs: 32,
		CoreWriteWCBs: 8,
		CoreLLCWindow: 24,
		CoreCXLReads:  20,
		CoreCXLWrites: 11,

		CCDDevReadCrd:  90,
		CCDDevWriteCrd: 60,

		CCXTokens: 210,
		CCDTokens: 0, // single CCX per CCD: no second token stage

		IntraCCReadCap:  units.GBps(33),
		IntraCCWriteCap: units.GBps(30),
		GMIReadCap:      units.GBps(35.2),
		GMIWriteCap:     units.GBps(23.8),
		UMCReadCap:      units.GBps(34.9),
		UMCWriteCap:     units.GBps(28.3),
		NoCReadCap:      units.GBps(366.2),
		NoCWriteCap:     units.GBps(270.6),
		PLinkReadCap:    units.GBps(23.4),
		PLinkWriteCap:   units.GBps(23.3),

		IntraCCLatency: units.Nanos(120),
		InterCCLatency: units.Nanos(150),

		IntraCCWriteQueue: 48,
		GMIWriteQueue:     420,
		NoCReadQueue:      256,
		NoCWriteQueue:     256,

		IFAdaptEpoch:     20 * units.Microsecond,
		PLinkAdaptEpoch:  62 * units.Microsecond,
		HarvestRampIF:    units.GBps(0.3),
		HarvestRampPLink: units.GBps(0.18),

		OscillatoryIntraCC: false,

		ReadRequestSize: 16,
		WriteAckSize:    8,
		CXLFlitSize:     68,

		PositionExtraHops: [4]int{0, 1, 2, 2},
	}
}

// Profiles returns both calibrated platform profiles in paper order.
func Profiles() []*Profile {
	return []*Profile{EPYC7302(), EPYC9634()}
}

// ProfileByName looks up a shipped profile by its marketing name,
// accepting "EPYC 7302", "7302", "EPYC 9634" or "9634".
func ProfileByName(name string) (*Profile, bool) {
	switch name {
	case "EPYC 7302", "7302", "epyc7302":
		return EPYC7302(), true
	case "EPYC 9634", "9634", "epyc9634":
		return EPYC9634(), true
	}
	return nil, false
}
