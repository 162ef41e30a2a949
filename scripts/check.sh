#!/usr/bin/env bash
# Pre-PR gate: static checks, formatting, build, and race-detector tests
# over the concurrency-sensitive packages. Run from the repo root:
#
#   bash scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== staticcheck"
# Pinned so local runs and CI agree on the finding set. Installed in CI
# (see .github/workflows/ci.yml); locally the step is skipped with a
# warning when the tool is absent, since offline sandboxes cannot fetch
# it and vet/gofmt still gate above.
STATICCHECK_VERSION="2025.1.1"
if command -v staticcheck >/dev/null 2>&1; then
    have=$(staticcheck -version 2>/dev/null || true)
    if [[ "$have" != *"$STATICCHECK_VERSION"* ]]; then
        echo "warning: staticcheck is $have, CI pins $STATICCHECK_VERSION" >&2
    fi
    staticcheck ./...
else
    echo "warning: staticcheck not installed; skipping (CI enforces it at $STATICCHECK_VERSION)" >&2
fi

echo "== gofmt"
# Only files tracked by git: stray worktrees/vendored copies don't gate.
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== perfbench vet + self-tests"
# perfbench is its own Go module (replace repro => ../), so neither the
# builds above nor tier-1 compile it; this step catches a change to the
# surface the benchmark calls before the benchmark itself is run.
(cd perfbench && go vet ./... && go test ./...)

echo "== go test -race -short ./..."
# Short mode caps the exhaustive crash-point sweeps to deterministic
# subsamples; the full sweeps run under plain `go test ./...` (and in CI).
go test -race -short ./...

echo "== crash-point sweeps (capped, native)"
go test -run Crash -short ./internal/crashtest/ ./internal/core/ ./internal/elog/

echo "== cluster router + failover (-race)"
# The partitioned-cluster suite under the race detector: the 4-shard
# differential vs a single store, replica log-shipping convergence,
# leader-kill failover (replica serving / typed degradation), and the
# partition-map stability properties (DESIGN.md §11).
go test -race -run 'TestCluster|TestFailover|TestReplica|TestShutdown|TestEpochVector|TestBreaker' ./internal/cluster/
go test -race -run 'TestHash64|TestOwner|TestSlot|TestSplit|TestNewSlotMap' ./internal/shard/

echo "== chaos differential sweep (capped, -race)"
# Seeded chaos schedules (drops, dups, delays, reorders, partitions) over
# a 4-shard+replicas cluster must converge edge-for-edge and
# label/prop-for-prop with a reference store once the chaos heals
# (DESIGN.md §14.5). Short mode caps the sweep at 2 schedules; a failure
# prints the exact -chaostest.seed replay command. The nightly widens the
# sweep and the workload.
go test -race -short ./internal/chaostest/

echo "== wire bench + benchgate (DESIGN.md §10.3)"
# Regenerate the binary-ingest/varint-density report at the same scale
# as the committed BENCH_6.json and gate it: absolute floors (binary
# decode >= 2x JSON, varint >= 1.5x fixed edges-per-XPLine) plus
# no-regression against the committed baseline. Density numbers come
# from the simulator and are deterministic; the decode speedup is
# host-clock, so the baseline comparison gives it a loose bound.
wire_report=$(mktemp -t bench6.XXXXXX.json)
cluster_report=$(mktemp -t bench7.XXXXXX.json)
soak_report=$(mktemp -t bench8.XXXXXX.json)
prop_report=$(mktemp -t bench9.XXXXXX.json)
trap 'rm -f "$wire_report" "$cluster_report" "$soak_report" "$prop_report"' EXIT
go run ./cmd/xpgraph bench -exp wire -scale 0.5 -json "$wire_report" >/dev/null
go run ./cmd/xpgraph benchgate -new "$wire_report" -baseline BENCH_6.json

echo "== cluster bench + benchgate (DESIGN.md §11)"
# Regenerate the multi-shard ingest-scaling report at the committed
# BENCH_7.json scale and gate it: 4-shard ingest >= 2x a single shard,
# plus no-regression against the committed baseline. All numbers are
# simulated-clock, so at a fixed scale the comparison is exact.
go run ./cmd/xpgraph bench -exp cluster -scale 0.5 -json "$cluster_report" >/dev/null
go run ./cmd/xpgraph benchgate -new "$cluster_report" -baseline BENCH_7.json

echo "== soak harness (short) + adaptive-admission benchgate (DESIGN.md §12)"
# Short soak coverage ran above inside `go test -race -short ./...`
# (deterministic short-mix replay + the fault-storm SLO-failure dump);
# here the bursty-ingest static-vs-adaptive comparison regenerates and
# gates: adaptive p99 >= 1.2x better (or >= 1.2x fewer 429s at equal
# p99), the controller actually tuned, no SLO violations, plus
# no-regression against the committed BENCH_8.json. Full scale, unlike
# the benches above: the builtin horizon is only 2 virtual seconds, and
# a shorter one samples too little burst congestion for the adaptive
# advantage to register. All numbers are simulated-clock, so the gates
# are exact.
go run ./cmd/xpgraph bench -exp soak -json "$soak_report" >/dev/null
go run ./cmd/xpgraph benchgate -new "$soak_report" -baseline BENCH_8.json

echo "== property-graph bench + benchgate (DESIGN.md §13)"
# Regenerate the filter-pushdown / typed-ingest report at the committed
# BENCH_9.json scale and gate it: the filtered 2-hop reads >= 2x fewer
# media lines than read-all-then-filter, typed ingest holds >= 0.8x
# plain throughput, plus no-regression against the committed baseline.
# All numbers are simulated-clock / simulated-media, so at a fixed
# scale the comparison is exact.
go run ./cmd/xpgraph bench -exp prop -scale 0.5 -json "$prop_report" >/dev/null
go run ./cmd/xpgraph benchgate -new "$prop_report" -baseline BENCH_9.json

echo "== media-scrub differentials (short)"
# The UE-injection differential harness (DESIGN.md §9): every read under
# injected media errors matches the oracle or fails typed, scrubs repair
# or honestly refuse, quarantine survives recovery. Fast and
# deterministic, so the whole suite gates here; the nightly workflow
# repeats it under -race -count=5.
go test -short ./internal/scrubtest/

echo "check.sh: all green"
