#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# flags (see bench/README.md). Every file the build and the run produce stays
# under .bench_build/ at the checkout root: the Go build cache, the binary,
# scratch job directories and trace files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/uavbench" .)
cd "$root"
exec "$out/uavbench" "$@"
