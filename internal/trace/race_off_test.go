//go:build !race

package trace_test

// raceEnabled reports whether the race detector is compiled in; the
// overhead-threshold test skips itself under -race because race
// instrumentation distorts the very timings it asserts on, and the
// export-allocation test because sync.Pool drops entries at random
// under the detector, so allocation counts vary run to run. The race
// leg still exercises the tracer's concurrency (fusion reads) — the
// overhead contract is gated by the dedicated non-race ci.sh leg.
const raceEnabled = false
