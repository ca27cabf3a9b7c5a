#!/usr/bin/env bash
# bench_sim_smoke.sh — the simulator throughput gate (make bench-sim-smoke).
#
# Builds cmd/wbbench twice, from this checkout and from its parent commit
# (HEAD~1: on a pull request's merge commit that is the base branch, on a
# push the previous commit), then runs the two binaries alternately in one
# session on one host, ROUNDS processes each of REPEAT measurements, and
# keeps each side's best fused and best row aggregate MIPS (interference
# on a shared host only ever slows a run down; a process's first fused
# pass also pays its warm-up).  It fails when the checkout's fused or row
# aggregate is below MIN_RATIO times the parent's.
#
# A fixed floor taken from the committed BENCH_sim.json, measured on
# another day and at another n, failed on unchanged code whenever the
# shared host was slow; both sides of this comparison see the same host.
# The gate still catches what it is for: structural regressions such as a
# de-batched hot path, a per-step allocation, or a row that regenerates
# its stream.
#
# Run it from the repository root:  make bench-sim-smoke
set -euo pipefail

ROUNDS=3
REPEAT=2
MIN_RATIO=0.80
N=500000

fail() { echo "bench-sim-smoke: FAIL: $*" >&2; exit 1; }

base_rev="$(git rev-parse -q --verify 'HEAD~1^{commit}')" ||
  fail "no parent commit to measure against (a clone needs history depth >= 2)"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git archive "$base_rev" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go build -o "$TMP/wbbench-base" ./cmd/wbbench)
go build -o "$TMP/wbbench-tree" ./cmd/wbbench

# Each side runs from its own source root, since the row path reads
# spaces/paper.json from the working directory.
run() { # side round
  if [ "$1" = base ]; then
    (cd "$TMP/base" && "$TMP/wbbench-base" -n "$N" -repeat "$REPEAT" -quiet > "$TMP/base-$2.json")
  else
    "$TMP/wbbench-tree" -n "$N" -repeat "$REPEAT" -quiet > "$TMP/tree-$2.json"
  fi
}
for i in $(seq 1 "$ROUNDS"); do
  if [ $((i % 2)) -eq 1 ]; then run base "$i"; run tree "$i"; else run tree "$i"; run base "$i"; fi
done

# best side k: the highest k-th aggregate_mips (1 = fused, 2 = row) over
# the side's rounds.
best() {
  for f in "$TMP/$1"-*.json; do
    grep '"aggregate_mips"' "$f" | sed -n "$2p" | tr -dc '0-9.'
    echo
  done | sort -g | tail -1
}

status=0
for k in 1 2; do
  path=fused
  [ "$k" -eq 2 ] && path=row
  base="$(best base "$k")" tree="$(best tree "$k")"
  [ -n "$base" ] && [ -n "$tree" ] || fail "$path aggregate missing from a wbbench run"
  if awk -v t="$tree" -v b="$base" -v r="$MIN_RATIO" 'BEGIN { exit !(t >= r * b) }'; then
    echo "bench-sim-smoke: $path ok: $tree MIPS vs parent $base (best of $((ROUNDS * REPEAT)), floor ${MIN_RATIO}x)" >&2
  else
    echo "bench-sim-smoke: FAIL: $path $tree MIPS below ${MIN_RATIO}x parent $base (best of $((ROUNDS * REPEAT)))" >&2
    status=1
  fi
done
exit "$status"
