#!/usr/bin/env bash
# Server smoke: check that junk numeric flags make classminerd and
# classminer-client exit 2 (usage), then start classminerd, drive it from
# concurrent clients with one request in flight each (depth-1 sessions),
# verify the responses are
# byte-identical to the CLI, then park 64
# idle connections on the reactor while 8 pipelined clients stream
# repeated requests — asserting the daemon's thread count never moves
# (readiness-driven, zero reader threads) — and finally stop the daemon
# with SIGTERM and assert a graceful drain (exit 0, zero leaked
# connections). tier1.sh runs this against both the plain and TSAN builds.
#
#   scripts/server_smoke.sh [BUILD_DIR]   # default ./build
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CLI="./$BUILD_DIR/examples/classminer"
DAEMON="./$BUILD_DIR/examples/classminerd"
CLIENT="./$BUILD_DIR/examples/classminer-client"
CLIENTS="${CLIENTS:-8}"

WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== server smoke ($BUILD_DIR): corpus =="
"$CLI" generate "$WORK/ward_rounds.cmv" --title laparoscopy --seed 11 \
  >/dev/null

echo "== server smoke: junk numeric flags are usage errors (exit 2) =="
expect_usage() {
  local status=0
  "$@" >/dev/null 2>&1 || status=$?
  if [[ "$status" != 2 ]]; then
    echo "expected exit 2 (usage) from: $*; got $status" >&2
    exit 1
  fi
}
expect_usage "$DAEMON" --chunk abc
expect_usage "$DAEMON" --threads 4x
expect_usage "$CLIENT" --port "" health

echo "== server smoke: start daemon =="
"$DAEMON" --port 0 --threads 4 --queue 8 \
  >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
DAEMON_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' \
    "$WORK/daemon.out" 2>/dev/null || true)"
  [[ -n "$PORT" ]] && break
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "daemon died during startup" >&2
    cat "$WORK/daemon.err" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$PORT" ]]; then
  echo "daemon never reported its port" >&2
  exit 1
fi
echo "daemon pid $DAEMON_PID on port $PORT"

echo "== server smoke: $CLIENTS concurrent clients, byte-identity vs CLI =="
"$CLI" mine "$WORK/ward_rounds.cmv" --fast >"$WORK/expected.txt" \
  2>/dev/null
PIDS=()
for i in $(seq 1 "$CLIENTS"); do
  "$CLIENT" --port "$PORT" --user "smoke$i" --clearance 3 --retries 8 \
    mine "$WORK/ward_rounds.cmv" --fast \
    >"$WORK/client$i.txt" 2>"$WORK/client$i.err" &
  PIDS+=("$!")
done
FAILED=0
for pid in "${PIDS[@]}"; do
  wait "$pid" || FAILED=1
done
if [[ "$FAILED" != 0 ]]; then
  echo "a client exited non-zero" >&2
  cat "$WORK"/client*.err >&2
  exit 1
fi
for i in $(seq 1 "$CLIENTS"); do
  if ! cmp -s "$WORK/expected.txt" "$WORK/client$i.txt"; then
    echo "client $i response differs from CLI output" >&2
    diff "$WORK/expected.txt" "$WORK/client$i.txt" >&2 || true
    exit 1
  fi
done
echo "all $CLIENTS responses byte-identical to the CLI"

echo "== server smoke: pipelined leg (64 idle + 8 active sessions) =="
# Park 64 connections that never speak: the reactor just watches their
# fds. A thread-per-connection server would spawn 64 readers; the epoll
# reactor must not change its thread count at all.
THREADS_BEFORE="$(ls /proc/$DAEMON_PID/task | wc -l)"
IDLE_FDS=()
for _ in $(seq 1 64); do
  exec {idle_fd}<>"/dev/tcp/127.0.0.1/$PORT"
  IDLE_FDS+=("$idle_fd")
done
THREADS_AFTER="$(ls /proc/$DAEMON_PID/task | wc -l)"
if [[ "$THREADS_BEFORE" != "$THREADS_AFTER" ]]; then
  echo "daemon thread count moved with idle connections:" \
    "$THREADS_BEFORE -> $THREADS_AFTER (expected readiness, not threads)" >&2
  exit 1
fi
echo "64 idle connections parked; daemon still $THREADS_AFTER thread(s)"

# 8 active pipelined sessions, each with 4 requests in flight, repeated 4
# times — every reassembled streamed response must equal 4 copies of the
# CLI's output (cache hits included: hits are byte-identical to fresh runs).
cat "$WORK/expected.txt" "$WORK/expected.txt" "$WORK/expected.txt" \
  "$WORK/expected.txt" >"$WORK/expected4.txt"
PIDS=()
for i in $(seq 1 8); do
  "$CLIENT" --port "$PORT" --user "pipe$i" --clearance 3 --retries 8 \
    --pipeline 4 --repeat 4 mine "$WORK/ward_rounds.cmv" --fast \
    >"$WORK/pipe$i.txt" 2>"$WORK/pipe$i.err" &
  PIDS+=("$!")
done
FAILED=0
for pid in "${PIDS[@]}"; do
  wait "$pid" || FAILED=1
done
if [[ "$FAILED" != 0 ]]; then
  echo "a pipelined client exited non-zero" >&2
  cat "$WORK"/pipe*.err >&2
  exit 1
fi
for i in $(seq 1 8); do
  if ! cmp -s "$WORK/expected4.txt" "$WORK/pipe$i.txt"; then
    echo "pipelined client $i response differs from 4x CLI output" >&2
    diff "$WORK/expected4.txt" "$WORK/pipe$i.txt" >&2 || true
    exit 1
  fi
done
for idle_fd in "${IDLE_FDS[@]}"; do
  exec {idle_fd}>&-
done
echo "8 pipelined sessions byte-identical to 4x CLI output"

echo "== server smoke: permission denial over the wire =="
if "$CLIENT" --port "$PORT" --user intern --clearance 0 \
  mine "$WORK/ward_rounds.cmv" --fast >/dev/null 2>"$WORK/denied.err"; then
  echo "clearance-0 mine should have been denied" >&2
  exit 1
fi
grep -q "PERMISSION_DENIED" "$WORK/denied.err" || {
  echo "expected PERMISSION_DENIED, got:" >&2
  cat "$WORK/denied.err" >&2
  exit 1
}

echo "== server smoke: SIGTERM graceful drain =="
kill -TERM "$DAEMON_PID"
STATUS=0
wait "$DAEMON_PID" || STATUS=$?
DAEMON_PID=""
if [[ "$STATUS" != 0 ]]; then
  echo "daemon exited $STATUS (expected graceful 0)" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
fi
grep -q "0 connection(s) still active" "$WORK/daemon.err" || {
  echo "daemon leaked connections:" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
}
sed -n 's/^classminerd: /daemon stats: /p' "$WORK/daemon.err"

echo "server smoke OK"
