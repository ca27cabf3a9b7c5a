#!/usr/bin/env bash
# banked_smoke.sh — acceptance smoke for the backend-axis sweep path.
#
# The banked/fenced backend rides through every layer a result crosses:
# machconf labels, the wbserve worker wire, the shared result store wbopt
# resumes from, and the canonical frontier JSON.  This script sweeps the
# tiny banked+fence space (spaces/banked-smoke.json) three ways and
# asserts they are byte-identical:
#
#   1. a plain local grid run (the reference artifact),
#   2. a worker-pool run over a result store (-store), then — simulating a
#      process killed mid-sweep — a resume over that store with two thirds
#      of its records cut from its log, which must re-simulate exactly the
#      missing jobs; this is the shape of the committed
#      results/banked_frontier.json sweep,
#   3. a re-run over the complete store, which must answer every job from
#      the store (zero appended records) and still render the same bytes.
#
# Run it from the repository root:  make smoke-banked
set -euo pipefail

PORT="${WB_BANKED_SMOKE_PORT:-8163}"
TMP="$(mktemp -d)"
WORKER_PID=""

cleanup() {
  [ -n "$WORKER_PID" ] && kill "$WORKER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "smoke-banked: FAIL: $*" >&2; exit 1; }

go build -o "$TMP/wbserve" ./cmd/wbserve
go build -o "$TMP/wbopt" ./cmd/wbopt

SPACE=spaces/banked-smoke.json
ARGS=(-space "$SPACE" -strategy grid -n 100000 -seed 1 -quiet)

# --- Pass 1: local reference run.
"$TMP/wbopt" "${ARGS[@]}" -out "$TMP/local.json" >/dev/null
grep -q 'backend=banked' "$TMP/local.json" \
  || fail "no banked machine in the frontier artifact"
grep -q 'fencecost=20' "$TMP/local.json" \
  || fail "no fenced machine in the frontier artifact"

# --- Pass 2: the same sweep through a worker over a result store, then a
# resume over that store with two thirds of its entries deleted (what a
# process killed mid-sweep leaves behind).
"$TMP/wbserve" -worker -addr "127.0.0.1:$PORT" >>"$TMP/worker.log" 2>&1 &
WORKER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1 \
  || fail "worker on port $PORT never became healthy"

STORE="$TMP/store"
LOG="$STORE/entries.log"
# entries counts the records in the store's log; a store-backed run appends
# exactly one record per job it simulated.
entries() { if [ -f "$LOG" ]; then wc -l < "$LOG"; else echo 0; fi; }

"$TMP/wbopt" "${ARGS[@]}" -workers "127.0.0.1:$PORT" \
  -store "$STORE" -out "$TMP/worker.json" >/dev/null
cmp "$TMP/local.json" "$TMP/worker.json" \
  || fail "worker-pool artifact differs from the local run"
FULL=$(entries)
[ "$FULL" -gt 3 ] || fail "worker run stored only $FULL jobs"

KEPT=$((FULL / 3))
head -n "$KEPT" "$LOG" > "$TMP/kept.log"
mv "$TMP/kept.log" "$LOG"
MISSING=$((FULL - KEPT))
[ "$(entries)" -eq "$KEPT" ] || fail "could not cut the store to $KEPT entries"
"$TMP/wbopt" "${ARGS[@]}" -workers "127.0.0.1:$PORT" \
  -store "$STORE" -out "$TMP/resumed.json" >/dev/null
RESUMED=$(entries)
[ "$RESUMED" -eq "$FULL" ] || fail "resume left $RESUMED stored jobs, want $FULL"
REWRITTEN=$((RESUMED - KEPT))
[ "$REWRITTEN" -eq "$MISSING" ] \
  || fail "resume simulated $REWRITTEN jobs, want exactly the $MISSING missing ones"
cmp "$TMP/local.json" "$TMP/resumed.json" \
  || fail "worker + store-resume artifact differs from the local run"

# --- Pass 3: a complete store must satisfy the whole sweep by itself.  The
# old -checkpoint flag name still selects the store.
"$TMP/wbopt" "${ARGS[@]}" -checkpoint "$STORE" -out "$TMP/replayed.json" >/dev/null
REPLAYED=$(entries)
[ "$REPLAYED" -eq "$FULL" ] || fail "replay over a complete store appended records ($FULL -> $REPLAYED): it re-simulated jobs"
cmp "$TMP/local.json" "$TMP/replayed.json" \
  || fail "store-replay artifact differs from the local run"

echo "smoke-banked: PASS — local, worker+resume ($KEPT/$FULL stored, $MISSING re-simulated), and replay are byte-identical"
