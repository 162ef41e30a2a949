#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload ingest-bin --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# files) goes under .bench_build/ in the checkout. Build output goes to
# standard error; the benchmark's last line of standard output is its
# JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
