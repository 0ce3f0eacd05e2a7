#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root: bash perfbench/run.sh --workload sim-figure
# --seed 1 --seconds 10 --trace 0. Every file the build and the run
# write (Go build cache, binary, temporary files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" HOME="$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
