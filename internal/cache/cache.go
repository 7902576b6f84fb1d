// Package cache models the compute chiplet's cache hierarchy: per-core L1
// and L2, and the L3 slice shared by a core complex (CCX). It provides
// a cycle-free analytic model (which level serves a pointer-chase
// over a given working set — how the paper's Table 2 "Compute Chiplet"
// rows were measured). The package tests hold the analytic thresholds to a
// concrete set-associative LRU simulator, which lives in sim_test.go.
package cache

import (
	"fmt"

	"repro/internal/topology"
	"repro/internal/units"
)

// Level identifies which tier of the memory hierarchy served an access.
type Level int

// Hierarchy tiers, nearest first.
const (
	L1 Level = iota
	L2
	L3
	Memory
)

var levelNames = [...]string{"L1", "L2", "L3", "memory"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return levelNames[l]
}

// Geometry describes one cache: capacity, associativity and line size.
type Geometry struct {
	Size units.ByteSize
	Ways int
	Line units.ByteSize
}

// Config sizes a three-level hierarchy as seen by one core: private L1 and
// L2 plus its CCX's L3 slice.
type Config struct {
	L1, L2, L3 Geometry
}

// ConfigFromProfile derives a core's cache configuration from a platform
// profile, using the associativities of the modelled parts (8-way L1 and
// L2, 16-way L3 — Zen 2 through Zen 4 all use these).
func ConfigFromProfile(p *topology.Profile) Config {
	return Config{
		L1: Geometry{Size: p.L1PerCore, Ways: 8, Line: units.CacheLine},
		L2: Geometry{Size: p.L2PerCore, Ways: 8, Line: units.CacheLine},
		L3: Geometry{Size: p.L3PerCCX(), Ways: 16, Line: units.CacheLine},
	}
}

// ServiceLevel reports which tier serves the steady-state accesses of a
// working set of the given size: the analytic model behind the paper's
// pointer-chase methodology ("gradually increasing the working set").
func (c Config) ServiceLevel(workingSet units.ByteSize) Level {
	switch {
	case workingSet <= c.L1.Size:
		return L1
	case workingSet <= c.L2.Size:
		return L2
	case workingSet <= c.L3.Size:
		return L3
	default:
		return Memory
	}
}

// Latency reports the profile's load-to-use latency for a hierarchy tier.
// Memory is position-dependent and handled by the network model, so this
// reports only the on-chiplet tiers and panics for Memory.
func Latency(p *topology.Profile, l Level) units.Time {
	switch l {
	case L1:
		return p.L1Latency
	case L2:
		return p.L2Latency
	case L3:
		return p.L3Latency
	}
	panic("cache: memory latency is position-dependent; use the network model")
}
