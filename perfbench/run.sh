#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload sweep-synth --seed 1 --seconds 30 --trace 0
# Everything the build and the benchmark write stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build in the repository
# root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/go-tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/go-tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$build/go-config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build-dir "$build" "$@"
