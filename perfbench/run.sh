#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-deep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. Build output goes to standard error, so
# the last line of standard output is the benchmark's result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOFLAGS=
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"

go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
