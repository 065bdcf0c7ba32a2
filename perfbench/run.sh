#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload net-echo --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# traces and determinism digests all stay under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$out/perfbench"
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
