package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// TrafficMatrix accumulates the bytes moved between named endpoints — the
// "intra-server traffic matrix" the paper's Implication #2 calls for. Keys
// are free-form endpoint names (e.g. "ccd0/core3", "umc2", "cxl0").
type TrafficMatrix struct {
	cells map[pairKey]units.ByteSize
}

type pairKey struct {
	src, dst string
}

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix {
	return &TrafficMatrix{cells: make(map[pairKey]units.ByteSize)}
}

// Record credits size bytes from src to dst.
func (tm *TrafficMatrix) Record(src, dst string, size units.ByteSize) {
	tm.cells[pairKey{src, dst}] += size
}

// Bytes reports the bytes moved from src to dst.
func (tm *TrafficMatrix) Bytes(src, dst string) units.ByteSize {
	return tm.cells[pairKey{src, dst}]
}

// Total reports all bytes in the matrix.
func (tm *TrafficMatrix) Total() units.ByteSize {
	var total units.ByteSize
	for _, v := range tm.cells {
		total += v
	}
	return total
}

// String renders the non-zero cells as "src -> dst: bytes" lines, sorted.
func (tm *TrafficMatrix) String() string {
	keys := make([]pairKey, 0, len(tm.cells))
	for k := range tm.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s -> %s: %v\n", k.src, k.dst, tm.cells[k])
	}
	return b.String()
}
