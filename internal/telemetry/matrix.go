package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// EndpointID is a dense interned key for a traffic-matrix endpoint name.
// Hot paths record by ID so the per-transaction cost is two integer map
// lookups with no string formatting; names are rendered only at report
// time.
type EndpointID int32

// TrafficMatrix accumulates the bytes moved between named endpoints — the
// "intra-server traffic matrix" the paper's Implication #2 calls for. Keys
// are free-form endpoint names (e.g. "ccd0/core3", "umc2", "cxl0"),
// interned to dense integer IDs internally.
type TrafficMatrix struct {
	ids   map[string]EndpointID
	names []string
	cells map[pairKey]units.ByteSize
}

type pairKey struct {
	src, dst EndpointID
}

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix {
	return &TrafficMatrix{
		ids:   make(map[string]EndpointID),
		cells: make(map[pairKey]units.ByteSize),
	}
}

// Intern returns the dense ID for name, assigning one on first use. Issuers
// intern their endpoint names once at construction and record by ID.
func (tm *TrafficMatrix) Intern(name string) EndpointID {
	if id, ok := tm.ids[name]; ok {
		return id
	}
	id := EndpointID(len(tm.names))
	tm.ids[name] = id
	tm.names = append(tm.names, name)
	return id
}

// Name reports the endpoint name interned as id.
func (tm *TrafficMatrix) Name(id EndpointID) string { return tm.names[id] }

// RecordID credits size bytes from src to dst by interned ID — the
// zero-allocation hot path.
func (tm *TrafficMatrix) RecordID(src, dst EndpointID, size units.ByteSize) {
	tm.cells[pairKey{src, dst}] += size
}

// Record credits size bytes from src to dst by name.
func (tm *TrafficMatrix) Record(src, dst string, size units.ByteSize) {
	tm.RecordID(tm.Intern(src), tm.Intern(dst), size)
}

// lookup resolves a name without interning; ok is false for names the
// matrix has never seen.
func (tm *TrafficMatrix) lookup(name string) (EndpointID, bool) {
	id, ok := tm.ids[name]
	return id, ok
}

// Bytes reports the bytes moved from src to dst.
func (tm *TrafficMatrix) Bytes(src, dst string) units.ByteSize {
	si, ok := tm.lookup(src)
	if !ok {
		return 0
	}
	di, ok := tm.lookup(dst)
	if !ok {
		return 0
	}
	return tm.cells[pairKey{si, di}]
}

// TotalFrom reports all bytes originated by src.
func (tm *TrafficMatrix) TotalFrom(src string) units.ByteSize {
	id, ok := tm.lookup(src)
	if !ok {
		return 0
	}
	var total units.ByteSize
	for k, v := range tm.cells {
		if k.src == id {
			total += v
		}
	}
	return total
}

// TotalTo reports all bytes destined to dst.
func (tm *TrafficMatrix) TotalTo(dst string) units.ByteSize {
	id, ok := tm.lookup(dst)
	if !ok {
		return 0
	}
	var total units.ByteSize
	for k, v := range tm.cells {
		if k.dst == id {
			total += v
		}
	}
	return total
}

// Total reports all bytes in the matrix.
func (tm *TrafficMatrix) Total() units.ByteSize {
	var total units.ByteSize
	for _, v := range tm.cells {
		total += v
	}
	return total
}

// Endpoints reports the sorted union of all sources and destinations that
// appear in a recorded cell.
func (tm *TrafficMatrix) Endpoints() []string {
	set := make(map[string]bool)
	for k := range tm.cells {
		set[tm.names[k.src]] = true
		set[tm.names[k.dst]] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the non-zero cells as "src -> dst: bytes" lines, sorted.
func (tm *TrafficMatrix) String() string {
	type row struct {
		src, dst string
		v        units.ByteSize
	}
	rows := make([]row, 0, len(tm.cells))
	for k, v := range tm.cells {
		rows = append(rows, row{tm.names[k.src], tm.names[k.dst], v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].src != rows[j].src {
			return rows[i].src < rows[j].src
		}
		return rows[i].dst < rows[j].dst
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s -> %s: %v\n", r.src, r.dst, r.v)
	}
	return b.String()
}
