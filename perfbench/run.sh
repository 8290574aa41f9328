#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-4k --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build/, so the first run builds from scratch.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
