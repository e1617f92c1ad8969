#!/usr/bin/env bash
# Builds the benchmark (the Go module in this directory, which imports the
# repository's packages from source) and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload light-day --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — the binary, Go's build cache, its
# temporary work directory, its config and telemetry — stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
