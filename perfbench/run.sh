#!/usr/bin/env bash
# Builds the benchmark and actserve from this checkout and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache and temporary files, the two binaries, and each
# workload's scratch files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/actserve" ./cmd/actserve >&2
exec "$out/perfbench" -out "$out" "$@"
