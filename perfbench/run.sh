#!/usr/bin/env bash
# Builds the benchmark and the wbserve binary it drives from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload paper_sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, result
# stores, journals, traces) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$build/bin"

[ -f go.mod ] || { echo "perfbench: no go.mod at the checkout root; cannot build the program" >&2; exit 2; }
go build -o "$build/bin/wbserve" ./cmd/wbserve
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -wbserve "$build/bin/wbserve" -work "$build/perfbench" "$@"
