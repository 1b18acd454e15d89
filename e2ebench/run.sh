#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root:
#
#   bash e2ebench/run.sh --workload cold-8192 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the traced runs' Chrome trace
# files. The benchmark is a module of its own that replaces the repository
# module with the parent directory, so outside a full checkout the build
# fails and the script exits nonzero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
# The toolchain keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
