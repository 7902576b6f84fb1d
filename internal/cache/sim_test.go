package cache

import (
	"fmt"

	"repro/internal/units"
)

// This file is the concrete cache simulator the analytic model is checked
// against; only tests use it.

// Sets reports the number of sets.
func (g Geometry) Sets() int {
	return int(g.Size / (units.ByteSize(g.Ways) * g.Line))
}

func (g Geometry) validate(name string) error {
	if g.Size <= 0 || g.Ways <= 0 || g.Line <= 0 {
		return fmt.Errorf("cache: %s: non-positive geometry", name)
	}
	if g.Size%(units.ByteSize(g.Ways)*g.Line) != 0 {
		return fmt.Errorf("cache: %s: size %v not divisible into %d ways of %v lines", name, g.Size, g.Ways, g.Line)
	}
	return nil
}

// set is one associativity set with true-LRU replacement: tags ordered
// most-recently-used first.
type set struct {
	tags []uint64
}

// lookup reports whether tag is present, promoting it to MRU; on a miss it
// inserts the tag, evicting the LRU victim when full, and reports the
// evicted tag (ok=false when nothing was evicted).
func (s *set) access(tag uint64, ways int) (hit bool, evicted uint64, hasEvict bool) {
	for i, t := range s.tags {
		if t == tag {
			copy(s.tags[1:i+1], s.tags[:i])
			s.tags[0] = tag
			return true, 0, false
		}
	}
	if len(s.tags) < ways {
		s.tags = append(s.tags, 0)
		copy(s.tags[1:], s.tags[:len(s.tags)-1])
		s.tags[0] = tag
		return false, 0, false
	}
	victim := s.tags[len(s.tags)-1]
	copy(s.tags[1:], s.tags[:len(s.tags)-1])
	s.tags[0] = tag
	return false, victim, true
}

// SimCache is a concrete set-associative LRU cache over 64 B lines.
type SimCache struct {
	geom Geometry
	sets []set

	hits, misses uint64
}

// NewSimCache builds a cache with the given geometry. It panics on an
// invalid geometry so misconfiguration fails loudly at construction.
func NewSimCache(g Geometry) *SimCache {
	if err := g.validate("sim"); err != nil {
		panic(err.Error())
	}
	return &SimCache{geom: g, sets: make([]set, g.Sets())}
}

// Access touches the line containing addr, reporting whether it hit.
func (c *SimCache) Access(addr uint64) bool {
	line := addr / uint64(c.geom.Line)
	idx := line % uint64(len(c.sets))
	tag := line / uint64(len(c.sets))
	hit, _, _ := c.sets[idx].access(tag, c.geom.Ways)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return hit
}

// Hits and Misses report the access counters.
func (c *SimCache) Hits() uint64   { return c.hits }
func (c *SimCache) Misses() uint64 { return c.misses }

// HitRate reports hits/(hits+misses), zero before any access.
func (c *SimCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Reset clears contents and counters.
func (c *SimCache) Reset() {
	for i := range c.sets {
		c.sets[i].tags = c.sets[i].tags[:0]
	}
	c.hits, c.misses = 0, 0
}

// SimHierarchy chains three SimCaches into an inclusive L1/L2/L3 lookup, as
// seen from one core.
type SimHierarchy struct {
	l1, l2, l3 *SimCache
}

// NewSimHierarchy builds the concrete hierarchy for a Config.
func NewSimHierarchy(cfg Config) *SimHierarchy {
	return &SimHierarchy{
		l1: NewSimCache(cfg.L1),
		l2: NewSimCache(cfg.L2),
		l3: NewSimCache(cfg.L3),
	}
}

// Access walks the hierarchy for addr and reports the tier that served it.
// Misses fill every nearer tier (inclusive hierarchy).
func (h *SimHierarchy) Access(addr uint64) Level {
	if h.l1.Access(addr) {
		return L1
	}
	if h.l2.Access(addr) {
		return L2
	}
	if h.l3.Access(addr) {
		return L3
	}
	return Memory
}

// Reset clears all three tiers.
func (h *SimHierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
}

// HitRates reports per-tier hit rates (L1, L2, L3).
func (h *SimHierarchy) HitRates() (l1, l2, l3 float64) {
	return h.l1.HitRate(), h.l2.HitRate(), h.l3.HitRate()
}
