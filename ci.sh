#!/bin/sh
# CI gate: formatting, vet, build, full test suite, byte-identity of the
# full reproduce run against reproduce_output.txt, the race detector over
# the packages that run experiment cells concurrently, and the tracing
# overhead guards.
set -eux

# gofmt gate: fail if any file needs reformatting.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...

# The benchmark module (its own go.mod) rebuilds the Figure 4 cells it
# times; its replica check holds them to the harness wrappers it calls.
(cd benchmark && go test -run TestReplicaCellsMatchHarness -count=1 .)

# Smoke-run every reproduce observer mode on one cell and read each file
# back: chiplettrace and chipletstat exit non-zero on malformed input.
# Bad -cell names, a non-positive -stats-window, -scale or -trace-spans
# and a negative -workers or -stats-top must be refused, as must a
# negative -top in chiplettrace and chipletstat.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/" ./cmd/reproduce ./cmd/chiplettrace ./cmd/chipletstat ./cmd/chipletbench
# The full suite at default flags must reprint reproduce_output.txt byte
# for byte.
"$smoke/reproduce" > "$smoke/reproduce_output.txt"
cmp "$smoke/reproduce_output.txt" reproduce_output.txt
# Every example is deterministic and must reprint its golden output in
# examples/testdata byte for byte (cmp also fails when a golden is missing).
go build -o "$smoke/" ./examples/...
for main in examples/*/main.go; do
    ex=$(basename "$(dirname "$main")")
    "$smoke/$ex" > "$smoke/$ex.txt"
    cmp "$smoke/$ex.txt" "examples/testdata/$ex.golden"
done
# chipletbench's per-flow profile report must reprint its golden byte for
# byte.
"$smoke/chipletbench" -platform 9634 -mode bandwidth -dest dram -cores 8 -demand 20 -profile > "$smoke/profile.txt"
cmp "$smoke/profile.txt" cmd/chipletbench/testdata/profile.golden
run="$smoke/reproduce -scale 16 -stats-top 0 -stats-window 25us"
$run -trace "$smoke/t.json" > /dev/null
$run -stats "$smoke/s4.json" -cell fig4:1:2 > /dev/null
$run -stats "$smoke/s5.json" -cell fig5:0 > /dev/null
$run -trace "$smoke/ft.json" -stats "$smoke/fs.json" > /dev/null
for f in t ft; do "$smoke/chiplettrace" -in "$smoke/$f.json" > /dev/null; done
for f in s4 s5 fs; do "$smoke/chipletstat" -in "$smoke/$f.json" > /dev/null; done
# chipletstat is the only OpenMetrics/CSV exporter: convert one dump each way.
for fmt in openmetrics csv; do
    "$smoke/chipletstat" -in "$smoke/s4.json" -format $fmt -o "$smoke/s4.$fmt"
    test -s "$smoke/s4.$fmt"
done
for bad in "-cell fig4:5:0" "-stats-window 0" "-scale 0" "-workers -1" "-trace-spans 0" "-stats-top -1"; do
    if $run -stats "$smoke/bad.json" $bad 2> /dev/null; then
        echo "reproduce accepted $bad" >&2
        exit 1
    fi
done
for bad in "chiplettrace -in $smoke/t.json" "chipletstat -in $smoke/s4.json"; do
    if "$smoke/"$bad -top -1 > /dev/null 2>&1; then
        echo "$bad accepted -top -1" >&2
        exit 1
    fi
done
# internal/core rides along for the use-after-recycle guard
# (TestPinnedRetentionRaceFree).
# internal/metrics rides along: its registry is engine-local and must
# stay safe under the parallel experiment orchestrator.
# The harness package runs experiment cells on the runCells worker pool
# (TestParallelMatchesSerial, TestParallelChannelStats). The explicit
# -timeout covers single-core hosts, where the race-instrumented harness
# suite can exceed go test's 600s default.
# internal/anomaly rides along: detectors run inside the OnHarvest hook
# of engine-local registries under the parallel orchestrator.
# internal/trace rides along for the trace-metrics fusion path
# (SpansInWindow keyed off harvest-window stamps).
go test -race -timeout 1800s ./internal/harness/ ./internal/core/ ./internal/metrics/ ./internal/anomaly/ ./internal/trace/

# Any host shape: the orchestrator's determinism and recycling tests pin
# Workers to 1 and 4, and the pinned tables and A3–A5 ablations run on
# GOMAXPROCS workers, so run their goroutines on one core and
# oversubscribed on eight. No timing assertions belong in this leg.
go test -count=1 -cpu 1,8 -run 'Parallel|Recycling|MatchReproduceOutput' ./internal/harness

# Observability overhead guards: an attached-but-disabled tracer must stay
# within ~5% of a nil tracer on the channel hot path (judged over
# interleaved nil/disabled pairs, so host drift lands on both sides), and
# the tracer hooks must never allocate — even when enabled. The
# wall-clock ratios only run with CHIPLET_OVERHEAD_GATE=1; plain go test
# checks their deterministic half. The span ring grows in fixed chunks up
# to SpanCap: TestSpanRingBounded checks TotalAlloc directly, at most the
# cap's chunks of 24-byte records while filling and 0 B once wrapped; the
# TestSpanPacking tests round-trip spans at the packing limits and require
# a panic past them.
CHIPLET_OVERHEAD_GATE=1 go test ./internal/trace/ -run 'TestDisabledTracerOverhead|TestHotPathAllocs' -v
go test ./internal/trace/ -run 'TestSpanRingBounded|TestSpanPackingLossless|TestSpanPackingLimits' -count=1 -v

# Windowed-metrics overhead guards: a harvesting registry must stay within
# ~5% of an uninstrumented run on the event hot path (the probes are
# pulled once per window, never per event; judged over interleaved
# none/harvesting pairs, as the tracer guard is), and an
# attached-but-unstarted registry must leave the simulation
# byte-identical.
CHIPLET_OVERHEAD_GATE=1 go test ./internal/metrics/ -run 'TestEnabledMetricsOverhead|TestUnstartedRegistryInvisible|TestHarvestAllocs' -v

# The harvest tick over the full-network instrument table must not
# allocate: the series ring grows from 8 windows to metrics.MaxWindows
# (the benchmark warms it until it wraps), then is reused; rescheduling
# reuses the pre-bound callback. Amortized growth would round to 0
# allocs/op, so the gate also demands 0 B/op, TestHarvestRingBounded
# checks TotalAlloc directly over MaxWindows windows of a full ring, and
# TestStartAllocationBounded holds Start to the first 8 windows.
bench=$(go test ./internal/metrics/ -run '^$' -bench 'BenchmarkMetricsHarvest' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkMetricsHarvest' | grep -qv ' 0 B/op[[:space:]]*0 allocs/op'; then
    echo "metrics harvest allocates on the steady-state path" >&2
    exit 1
fi
go test ./internal/metrics/ -run 'TestHarvestRingBounded|TestStartAllocationBounded' -count=1 -v

# Fuzz the metrics dump reader behind chipletstat: malformed bytes must be
# rejected or yield a dump every report and exporter handles without
# panicking; the seed corpus in internal/metrics/testdata/fuzz runs with
# every go test.
go test ./internal/metrics/ -run '^$' -fuzz FuzzDumpJSON -fuzztime 10s

# The trace export must not allocate per span: every complete event is
# appended into one reused buffer, so a 64k-span export costs a handful
# of allocations (bufio, the scratch slice, hop metadata), not ~4 a span.
bench=$(go test ./internal/trace/ -run '^$' -bench 'BenchmarkWriteTraceEvents' -benchtime 20x)
echo "$bench"
allocs=$(echo "$bench" | awk '/BenchmarkWriteTraceEvents/ {for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1)}')
if [ -z "$allocs" ] || [ "$allocs" -gt 64 ]; then
    echo "trace export allocates per span (${allocs:-no} allocs/op for 64k spans)" >&2
    exit 1
fi

# Fuzz the append encoder against the fmt reference exporter, and the
# trace reader on raw bytes; the seed corpus in
# internal/trace/testdata/fuzz runs with every go test.
go test ./internal/trace/ -run '^$' -fuzz FuzzTraceEvents -fuzztime 10s

# The online anomaly detector sweep over the same table must not allocate
# either: detector state is sized at the first sweep, and the steady-state
# (no incident transitions) update path is flat arithmetic.
bench=$(go test ./internal/anomaly/ -run '^$' -bench 'BenchmarkDetectorSweep' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkDetectorSweep' | grep -qv ' 0 allocs/op'; then
    echo "anomaly detector sweep allocates on the steady-state path" >&2
    exit 1
fi

# Fuzz the event calendar against a reference (time, seq) binary heap,
# checking the wheel's own invariants after every op: exact stamp
# collisions, out-of-order arrivals within a slot (sorted inserts, and the
# aside heap past the walk cap), stamps straddling and far past the
# sliding horizon, events scheduled from callbacks and RunUntil/Step
# interleavings; the seed corpus in
# internal/sim/testdata/fuzz runs with every go test.
go test ./internal/sim/ -run '^$' -fuzz FuzzCalendar -fuzztime 30s

# Engine benchmarks must stay allocation-free with the tracer in the tree.
# BenchmarkEngineNew times construction itself, which must allocate: it is
# held instead to the 32 KB slot table plus the engine and its RNG.
bench=$(go test ./internal/sim/ -run '^$' -bench 'BenchmarkEngine' -benchtime 10000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkEngine' | grep -v 'BenchmarkEngineNew' | grep -qv ' 0 allocs/op'; then
    echo "engine benchmarks allocate on the steady-state path" >&2
    exit 1
fi
newbytes=$(echo "$bench" | awk '/BenchmarkEngineNew/ {for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1)}')
if [ -z "$newbytes" ] || [ "$newbytes" -gt 36864 ]; then
    echo "sim.New allocates ${newbytes:-no} B/op, more than its 32 KB slot table and engine" >&2
    exit 1
fi

# Building a platform costs a fixed handful of allocations, not one per
# channel, pool and name: core.New keeps each component kind in one slab
# and every name in one string. Hold it to 64 allocs/op on either profile
# and to the bytes of the one-object-per-component build it replaced
# (26,804 B for the 7302, 144,961 B for the 9634); TestNewAllocs checks
# the same bounds in plain go test.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkNew$' -benchtime 200x)
echo "$bench"
echo "$bench" | awk '
    /^BenchmarkNew\/EPYC7302/ { max = 26804 }
    /^BenchmarkNew\/EPYC9634/ { max = 144961 }
    /^BenchmarkNew\// {
        for (i = 2; i <= NF; i++) {
            if ($i == "B/op") bytes = $(i-1)
            if ($i == "allocs/op") allocs = $(i-1)
        }
        seen++
        if (allocs > 64 || bytes > max) {
            print "core.New on " $1 " makes " allocs " allocs/op, " bytes " B/op" > "/dev/stderr"
            bad = 1
        }
    }
    END { exit (bad || seen != 2) }'

# Attaching an observer costs a fixed handful of allocations, not one per
# instrument, hop or name: AttachMetrics and AttachTracer size their
# tables once, register pointer-typed probes and build their names in one
# string. Hold each to 16 allocs/op on either profile; TestAttachAllocs
# checks the same bound in plain go test.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkAttach$' -benchtime 200x)
echo "$bench"
echo "$bench" | awk '
    /^BenchmarkAttach\// {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
        seen++
        if (allocs > 16) {
            print $1 " makes " allocs " allocs/op" > "/dev/stderr"
            bad = 1
        }
    }
    END { exit (bad || seen != 4) }'

# A warm accelerator kernel, doorbell to completion record, must not
# allocate: every message rides a recycled walker and the kernel's phases
# a recycled frame. Hold both rows (no DMA, 64 KiB each way) to 0
# allocs/op; TestSubmitAllocs checks the same in plain go test.
bench=$(go test ./internal/accel/ -run '^$' -bench 'BenchmarkSubmit$' -benchtime 2000x)
echo "$bench"
echo "$bench" | awk '
    /^BenchmarkSubmit\// {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
        seen++
        if (allocs != 0) {
            print $1 " makes " allocs " allocs/op" > "/dev/stderr"
            bad = 1
        }
    }
    END { exit (bad || seen != 2) }'

# The whole transaction pipeline must be allocation-free in steady state:
# every DestKind x Op case, unloaded and loaded.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkNetworkIssue' -benchtime 5000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkNetworkIssue' | grep -qv ' 0 allocs/op'; then
    echo "transaction pipeline allocates on the steady-state path" >&2
    exit 1
fi

# The message path must not grow: a saturated channel's departure ring is
# bounded by its peak occupancy, writebacks leave only a stamp in it, a
# token pool's waiter queue compacts in place, and the router mesh routes
# on pooled frames. Amortized append growth rounds to 0 allocs/op, so
# these gates also demand 0 B/op, and TestDepartureRingBounded checks
# TotalAlloc directly over 1M messages.
msgpath='BenchmarkChannelSaturated|BenchmarkChannelWriteback|BenchmarkTokenPoolAcquireRelease|BenchmarkMeshRoute'
bench=$(go test ./internal/link/ ./internal/router/ -run '^$' -bench "$msgpath" -benchtime 200000x)
echo "$bench"
if echo "$bench" | grep -E "$msgpath" | grep -qv ' 0 B/op[[:space:]]*0 allocs/op'; then
    echo "channel, token pool or mesh message path allocates in steady state" >&2
    exit 1
fi
go test ./internal/link/ -run 'TestDepartureRingBounded' -count=1 -v

# Fuzz the departure ring against the classic depart-event model; the
# seed corpus in internal/link/testdata/fuzz runs with every go test.
go test ./internal/link/ -run '^$' -fuzz FuzzDepartureRing -fuzztime 10s
