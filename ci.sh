#!/bin/sh
# CI gate: formatting, vet, build, full test suite, the race detector over
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
# internal/core rides along for the use-after-recycle guard
# (TestPinnedRetentionRaceFree).
# internal/metrics rides along: its registry is engine-local and must
# stay safe under the parallel experiment orchestrator.
# The harness package runs experiment cells on the runCells worker pool
# (TestParallelMatchesSerial, TestParallelChannelStats); its byte-identity
# determinism sweeps skip themselves under -race (their assertions are
# race-agnostic) to keep this leg within budget. The explicit -timeout
# covers single-core hosts, where the race-instrumented harness suite can
# exceed go test's 600s default.
# internal/anomaly rides along: detectors run inside the OnHarvest hook
# of engine-local registries under the parallel orchestrator.
# internal/serve IS the concurrency: its mirror is written from cell
# goroutines while HTTP handlers scrape (TestConcurrentScrape).
# internal/trace rides along for the trace-metrics fusion path
# (SpansInWindow keyed off harvest-window stamps).
# internal/anomaly/correlate rides along: the /correlate handler renders
# it from snapshots taken while cell goroutines keep harvesting.
go test -race -timeout 1800s ./internal/harness/ ./internal/core/ ./internal/metrics/ ./internal/anomaly/ ./internal/anomaly/correlate/ ./internal/serve/ ./internal/trace/

# Observability overhead guards: an attached-but-disabled tracer must stay
# within ~5% of a nil tracer on the channel hot path, and the tracer hooks
# must never allocate — even when enabled. The wall-clock ratios only run
# with CHIPLET_OVERHEAD_GATE=1; plain go test checks their deterministic
# half.
CHIPLET_OVERHEAD_GATE=1 go test ./internal/trace/ -run 'TestDisabledTracerOverhead|TestHotPathAllocs' -v

# Windowed-metrics overhead guards: a harvesting registry must stay within
# ~5% of an uninstrumented run on the event hot path (the probes are
# pulled once per window, never per event), and an attached-but-unstarted
# registry must leave the simulation byte-identical.
CHIPLET_OVERHEAD_GATE=1 go test ./internal/metrics/ -run 'TestEnabledMetricsOverhead|TestUnstartedRegistryInvisible|TestHarvestAllocs' -v

# The harvest tick over the full-network instrument table must not
# allocate: rings are sized at Start, rescheduling reuses the pre-bound
# callback.
bench=$(go test ./internal/metrics/ -run '^$' -bench 'BenchmarkMetricsHarvest' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkMetricsHarvest' | grep -qv ' 0 allocs/op'; then
    echo "metrics harvest allocates on the steady-state path" >&2
    exit 1
fi

# The online anomaly detector sweep over the same table must not allocate
# either: detector state is sized at the first sweep, and the steady-state
# (no incident transitions) update path is flat arithmetic.
bench=$(go test ./internal/anomaly/ -run '^$' -bench 'BenchmarkDetectorSweep' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkDetectorSweep' | grep -qv ' 0 allocs/op'; then
    echo "anomaly detector sweep allocates on the steady-state path" >&2
    exit 1
fi

# The incident archive's append path must not allocate either: records
# are encoded into a reused buffer by the hand-rolled marshaller, so an
# attached archive adds no allocation inside the harvest tick.
bench=$(go test ./internal/anomaly/ -run '^$' -bench 'BenchmarkArchiveAppend' -benchtime 1000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkArchiveAppend' | grep -qv ' 0 allocs/op'; then
    echo "incident archive append allocates" >&2
    exit 1
fi

# Engine benchmarks must stay allocation-free with the tracer in the tree.
bench=$(go test ./internal/sim/ -run '^$' -bench 'BenchmarkEngine' -benchtime 10000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkEngine' | grep -qv ' 0 allocs/op'; then
    echo "engine benchmarks allocate on the steady-state path" >&2
    exit 1
fi

# The whole transaction pipeline must be allocation-free in steady state:
# every DestKind x Op case, unloaded and loaded.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkNetworkIssue' -benchtime 5000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkNetworkIssue' | grep -qv ' 0 allocs/op'; then
    echo "transaction pipeline allocates on the steady-state path" >&2
    exit 1
fi

# The express-path fusion layer must be allocation-free too: fused
# segments ride recycled walker frames and memoized serialization times.
bench=$(go test ./internal/core/ -run '^$' -bench 'BenchmarkExpressPath' -benchtime 5000x)
echo "$bench"
if echo "$bench" | grep 'BenchmarkExpressPath' | grep -qv ' 0 allocs/op'; then
    echo "express-path fusion allocates on the steady-state path" >&2
    exit 1
fi

# The message path must not grow: a saturated channel's departure ring is
# bounded by its peak occupancy, and the router mesh routes on pooled
# frames. Amortized append growth rounds to 0 allocs/op, so these gates
# also demand 0 B/op, and TestDepartureRingBounded checks TotalAlloc
# directly over 1M messages.
bench=$(go test ./internal/link/ ./internal/router/ -run '^$' -bench 'BenchmarkChannelSaturated|BenchmarkMeshRoute' -benchtime 200000x)
echo "$bench"
if echo "$bench" | grep -E 'BenchmarkChannelSaturated|BenchmarkMeshRoute' | grep -qv ' 0 B/op[[:space:]]*0 allocs/op'; then
    echo "channel or mesh message path allocates in steady state" >&2
    exit 1
fi
go test ./internal/link/ -run 'TestDepartureRingBounded' -count=1 -v

# Fuzz the departure ring against the classic depart-event model; the
# seed corpus in internal/link/testdata/fuzz runs with every go test.
go test ./internal/link/ -run '^$' -fuzz FuzzDepartureRing -fuzztime 10s

# Fusion-effectiveness gate: the full-length 7302 inter-CC IF cell must
# elide >= 40% of its classic-equivalent event load (>= 1.5x
# classic-equivalent events advanced per executed event, >= 50% of the
# per-message depart/delivery pairs). The ledger is seed-exact, so the
# gate is deterministic — wall clocks on shared hosts are not, which is
# why the events-per-second claim is gated through the event counts that
# compose it rather than a timed run.
CHIPLET_FUSION_GATE=1 go test ./internal/harness/ -run TestFusionEffectivenessGate -v -count=1 -timeout 600s
