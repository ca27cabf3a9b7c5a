#!/usr/bin/env bash
# seed_mips.sh — re-measures the seed baseline behind BENCH_sim.json's
# seed_aggregate_mips on this host.
#
# The seed tree (6cf8f98^, the per-reference Stream.Next + Step loop
# before the fused path) has no wbbench, so this script builds a small
# harness inside it that times the seed's dispatch.ExecuteBench on the
# baseline machine over the 17-benchmark suite, exactly what wbbench's
# fused path measures.  It runs the seed harness and this checkout's
# wbbench alternately, ROUNDS times each at N instructions per benchmark,
# and prints each side's best aggregate (interference on a shared host
# only ever slows a run down).  Put the seed figure into wbbench's
# -seed-mips default, then regenerate BENCH_sim.json with make bench-sim.
#
# Run it from the repository root:  bash scripts/seed_mips.sh
set -euo pipefail

SEED_REV='6cf8f98^'
ROUNDS=3
N=2000000

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir -p "$TMP/seed"
git archive "$SEED_REV" | tar -x -C "$TMP/seed"
mkdir -p "$TMP/seed/cmd/seedbench"
cat > "$TMP/seed/cmd/seedbench/main.go" <<'EOF'
package main

import (
	"fmt"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	const n = N_PER_BENCH
	var total uint64
	var wall time.Duration
	for _, b := range workload.All() {
		start := time.Now()
		if _, err := dispatch.ExecuteBench(b, "bench", sim.Baseline(), n, nil); err != nil {
			panic(err)
		}
		wall += time.Since(start)
		total += n
	}
	fmt.Printf("%.2f\n", float64(total)/wall.Seconds()/1e6)
}
EOF
sed -i "s/N_PER_BENCH/$N/" "$TMP/seed/cmd/seedbench/main.go"
(cd "$TMP/seed" && go build -o "$TMP/seedbench" ./cmd/seedbench)
go build -o "$TMP/wbbench" ./cmd/wbbench

for i in $(seq 1 "$ROUNDS"); do
  seed="$("$TMP/seedbench")"
  fused="$("$TMP/wbbench" -n "$N" -quiet | grep '"aggregate_mips"' | head -1 | tr -dc '0-9.')"
  echo "round $i: seed $seed MIPS, fused $fused MIPS" >&2
  echo "$seed $fused"
done > "$TMP/rounds"

best_seed="$(cut -d' ' -f1 "$TMP/rounds" | sort -g | tail -1)"
best_fused="$(cut -d' ' -f2 "$TMP/rounds" | sort -g | tail -1)"
echo "seed best of $ROUNDS: $best_seed MIPS; fused best of $ROUNDS: $best_fused MIPS" \
  "($(awk -v f="$best_fused" -v s="$best_seed" 'BEGIN { printf "%.2f", f / s }')x)"
