#!/usr/bin/env bash
# scrub_smoke.sh — self-healing smoke for the replicated store and the
# admin surface.
#
# One wbserve process runs the robustness stack at once: a two-replica
# result store with a fast background scrubber and bearer-token auth with
# the /admin surface enabled.  Mid-sweep the script flips a byte inside a
# stored record on the first replica (the one reads hit first), then
# asserts:
#
#   1. the sweep completes byte-identical to a baseline server that saw
#      no faults at all,
#   2. the scrubber (background or via POST /admin/store/verify) detects
#      the corrupt copy, quarantines it, and repairs it from the healthy
#      replica — the final verify reports zero corruption,
#   3. the admin surface enforces auth: no token answers 401, a non-admin
#      token answers 403.
#
# Process crashes are covered elsewhere: make serve-smoke SIGKILLs the
# server mid-sweep, and make chaos crashes dispatch.Remote workers.
#
# Run it from the repository root:  make scrub-smoke
set -euo pipefail

PORT="${WB_SCRUB_PORT:-8183}"
BASE="http://127.0.0.1:$PORT"
TMP="$(mktemp -d)"
BIN="$TMP/wbserve"
SERVER_PID=""
ADMIN='Authorization: Bearer tok-ops'
USER='Authorization: Bearer tok-alice'

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "scrub-smoke: FAIL: $*" >&2; sed -n '1,50p' "$TMP/server.log" >&2 || true; exit 1; }

go build -o "$BIN" ./cmd/wbserve

cat > "$TMP/keys.json" <<'EOF'
{"alice": {"token": "tok-alice"}, "ops": {"token": "tok-ops", "admin": true}}
EOF

SWEEP='{"benches":["li","fft","compress","doduc","espresso","sc"],"n":10000000,"depth":8,"retire_at":4,"async":true}'

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  fail "server on $BASE never became healthy"
}

metric() { # $1 = metric name; prints its value or 0
  # /metrics demands a token once -authkeys is on; sending one is harmless
  # on the unauthenticated baseline server (it ignores Authorization).
  curl -sf -H "$ADMIN" "$BASE/metrics" | sed -n "s/^$1 \([0-9.][0-9.]*\)\$/\1/p" | head -n 1
}

run_id() { sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' | head -n 1; }

wait_complete() { # $1 = run id, $2... = extra curl args; prints the final doc
  local id="$1"; shift
  for _ in $(seq 1 600); do
    doc="$(curl -sf "$@" "$BASE/run/$id" || true)"
    if printf '%s' "$doc" | grep -q '"complete": *true'; then
      printf '%s' "$doc"
      return 0
    fi
    sleep 0.1
  done
  fail "run $id did not complete within 60s"
}

# --- Pass 1: baseline — same sweep, plain single-replica server, no faults.
mkdir -p "$TMP/baseline"
"$BIN" -addr "127.0.0.1:$PORT" -store "$TMP/baseline/store" \
  -queue "$TMP/baseline/queue.jsonl" -dispatchers 1 -cachesize 64 \
  >>"$TMP/server.log" 2>&1 &
SERVER_PID=$!
wait_healthy
# Declare the same tenant the authenticated pass will resolve to: run ids
# are content-addressed over (tenant, jobs), so the two passes must match.
ID="$(curl -sf -X POST "$BASE/run" -H 'X-WB-Tenant: alice' -H 'Content-Type: application/json' -d "$SWEEP" | run_id)"
[ -n "$ID" ] || fail "baseline POST /run returned no run id"
wait_complete "$ID" > "$TMP/baseline.json"
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""
echo "scrub-smoke: baseline run $ID complete"

# --- Pass 2: the robustness stack — replicated store and auth.
mkdir -p "$TMP/chaos"
"$BIN" -addr "127.0.0.1:$PORT" -store "$TMP/chaos/a,$TMP/chaos/b" \
  -queue "$TMP/chaos/queue.jsonl" -dispatchers 1 -cachesize 64 \
  -authkeys "$TMP/keys.json" -scrubinterval 1s \
  >>"$TMP/server.log" 2>&1 &
SERVER_PID=$!
wait_healthy

# Auth gate: no token is 401, a non-admin token is 403, admin is 200.
code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/admin/store/status")"
[ "$code" = "401" ] || fail "admin without a token answered $code, want 401"
code="$(curl -s -o /dev/null -w '%{http_code}' -H "$USER" "$BASE/admin/store/status")"
[ "$code" = "403" ] || fail "admin with a non-admin token answered $code, want 403"
code="$(curl -s -o /dev/null -w '%{http_code}' -H "$ADMIN" "$BASE/admin/store/status")"
[ "$code" = "200" ] || fail "admin with the admin token answered $code, want 200"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "$SWEEP" "$BASE/run")"
[ "$code" = "401" ] || fail "unauthenticated /run answered $code, want 401"
# Read surfaces are gated too: run ids are content-addressed (derivable from
# the sweep), so unauthenticated reads would leak every tenant's results.
code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/metrics")"
[ "$code" = "401" ] || fail "unauthenticated /metrics answered $code, want 401"
code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/run/$ID")"
[ "$code" = "401" ] || fail "unauthenticated GET /run answered $code, want 401"
echo "scrub-smoke: auth gate holds (401/403/200, reads gated)"

ID2="$(curl -sf -X POST "$BASE/run" -H "$USER" -H 'Content-Type: application/json' -d "$SWEEP" | run_id)"
[ "$ID2" = "$ID" ] || fail "run ids differ ($ID vs $ID2) — content-addressed ids should match"

# Wait until the store holds at least one whole record, then flip a byte
# in the middle of the first record of replica a's log — the replica reads
# consult first.
log="$TMP/chaos/a/entries.log"
records() { if [ -f "$log" ]; then wc -l < "$log"; else echo 0; fi; }
for _ in $(seq 1 600); do
  [ "$(records)" -ge 1 ] && break
  sleep 0.1
done
[ "$(records)" -ge 1 ] || fail "no store record appeared within 60s"
size="$(head -n 1 "$log" | wc -c)"
printf '\377' | dd of="$log" bs=1 seek="$((size / 2))" count=1 conv=notrunc 2>/dev/null
echo "scrub-smoke: flipped a byte in the first record of replica a's log"

# The sweep must still complete, byte-identical to the baseline.
wait_complete "$ID" -H "$USER" > "$TMP/chaos.json"
cmp "$TMP/baseline.json" "$TMP/chaos.json" \
  || fail "run document under faults differs from the baseline"
echo "scrub-smoke: sweep complete, byte-identical to baseline"

# Scrub: a synchronous verify pass (the background scrubber may already
# have healed it — either way the store must end corruption-free with at
# least one repair recorded).
curl -sf -X POST -H "$ADMIN" "$BASE/admin/store/verify" > "$TMP/verify1.json"
repairs="$(metric sim_store_repair_total || echo 0)"
[ "${repairs%.*}" -ge 1 ] || fail "no repair recorded after corrupting a replica copy"
curl -sf -X POST -H "$ADMIN" "$BASE/admin/store/verify" > "$TMP/verify2.json"
grep -q '"corrupt": *0' "$TMP/verify2.json" \
  || fail "store still corrupt after repair: $(cat "$TMP/verify2.json")"
find "$TMP/chaos/a/quarantine" -name '*.corrupt' | grep -q . \
  || fail "corrupt copy was not quarantined"
echo "scrub-smoke: corrupt copy quarantined and repaired from the healthy replica"

kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=""
echo "scrub-smoke: PASS — self-healed through bitrot, byte-identical"
