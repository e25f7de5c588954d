#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash benchmark/run.sh --workload fleet-local --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the compiler cache and work files, Go's configuration and
# telemetry directory, the binary, checkpoint scratch files and trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$out/flbenchmark" .
cd "$root"
exec "$out/flbenchmark" -out "$out" "$@"
