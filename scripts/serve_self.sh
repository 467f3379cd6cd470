#!/usr/bin/env bash
# serve-self: end-to-end self-check of the verification service.
#
# Starts a daemon on a private socket, submits two suite pairs twice
# (the second submission of each must be answered from the result
# cache), checks the warm-start count after an --analysis job that the
# cached checkpoint does not fit, cancels an in-flight job, shuts the
# daemon down gracefully, and fails if the daemon leaks its socket file.
#
# Usage: serve_self.sh path/to/seqver

set -eu

SEQVER=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/seqver-serve-self.XXXXXX")
SERVE_PID=

cleanup() {
  status=$?
  if [ -n "$SERVE_PID" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  if [ "$status" -ne 0 ] && [ -f "$WORK/serve.log" ]; then
    echo "serve-self: daemon log:" >&2
    cat "$WORK/serve.log" >&2
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap cleanup EXIT

fail() {
  echo "serve-self: $*" >&2
  exit 1
}

SOCK=$WORK/serve.sock
"$SEQVER" serve --socket "$SOCK" --cache-dir "$WORK/cache" --workers 2 \
  > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 100); do
  test -S "$SOCK" && break
  sleep 0.1
done
test -S "$SOCK" || fail "daemon never created $SOCK"

# Two suite pairs, each submitted twice: fresh run, then a cache hit.
jobs=0
for name in ctr8 lfsr16; do
  "$SEQVER" gen "$name" -o "$WORK/$name.blif"
  "$SEQVER" opt "$WORK/$name.blif" "$WORK/$name-impl.aag" \
    --recipe retime+opt --seed 3 > /dev/null

  "$SEQVER" submit "$WORK/$name.blif" "$WORK/$name-impl.aag" \
    --socket "$SOCK" --json > "$WORK/$name-1.json"
  grep -q '"verdict":"equivalent"' "$WORK/$name-1.json" \
    || fail "$name: first submission not proved equivalent"
  grep -q '"cached":false' "$WORK/$name-1.json" \
    || fail "$name: first submission unexpectedly cached"

  "$SEQVER" submit "$WORK/$name.blif" "$WORK/$name-impl.aag" \
    --socket "$SOCK" --json > "$WORK/$name-2.json"
  grep -q '"cached":true' "$WORK/$name-2.json" \
    || fail "$name: resubmission missed the cache"
  grep -q '"verdict":"equivalent"' "$WORK/$name-2.json" \
    || fail "$name: cached verdict changed"

  jobs=$((jobs + 2))
  echo "serve-self: $name verified fresh + cached"
done

# A warm start counts only when the resumed run accepts the checkpoint:
# the plain ctr8 run above left one that does not fit the pre-reduced
# pair an --analysis job verifies, so that job falls back cold.  The
# daemon's warm-start count must equal the outcomes that resumed.
"$SEQVER" submit "$WORK/ctr8.blif" "$WORK/ctr8-impl.aag" --analysis \
  --socket "$SOCK" --json > "$WORK/ctr8-analysis.json"
grep -q '"verdict":"equivalent"' "$WORK/ctr8-analysis.json" \
  || fail "ctr8 --analysis: not proved equivalent"
jobs=$((jobs + 1))
resumed=$(cat "$WORK"/*.json | grep -c '"resumed_iterations":[1-9]' || true)
"$SEQVER" submit --stats --json --socket "$SOCK" > "$WORK/stats.out"
grep -q "\"warm_starts\":$resumed[,}]" "$WORK/stats.out" \
  || fail "warm_starts does not equal the $resumed resumed outcome(s)"
echo "serve-self: warm starts counted only when accepted ($resumed)"

# Cancel an in-flight job: job ids are sequential, so the next
# submission is job-$((jobs + 1)).  ctr32 is slow enough that the
# cancel lands while the job is queued or running; the client exits 3.
"$SEQVER" gen ctr32 -o "$WORK/ctr32.blif"
"$SEQVER" opt "$WORK/ctr32.blif" "$WORK/ctr32-impl.aag" \
  --recipe retime+opt --seed 3 > /dev/null
"$SEQVER" submit "$WORK/ctr32.blif" "$WORK/ctr32-impl.aag" \
  --socket "$SOCK" --json > "$WORK/ctr32.json" 2>&1 &
CLIENT_PID=$!
sleep 0.3
"$SEQVER" submit --cancel "job-$((jobs + 1))" --socket "$SOCK" > /dev/null
client_rc=0
wait "$CLIENT_PID" || client_rc=$?
test "$client_rc" -eq 3 || fail "cancelled client exited $client_rc, want 3"
grep -q '"verdict":"cancelled"' "$WORK/ctr32.json" \
  || fail "cancelled job did not report a cancelled verdict"
echo "serve-self: cancel delivered"

# Graceful shutdown: the daemon acknowledges, exits 0, and leaves no
# socket files behind.
"$SEQVER" submit --shutdown --socket "$SOCK" > /dev/null
serve_rc=0
wait "$SERVE_PID" || serve_rc=$?
SERVE_PID=
test "$serve_rc" -eq 0 || fail "daemon exited $serve_rc, want 0"

leaked=$(find "$WORK" -name '*.sock' | wc -l)
test "$leaked" -eq 0 || fail "daemon leaked $leaked socket file(s)"
echo "serve-self: graceful shutdown, no leaked sockets"
