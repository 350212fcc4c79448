#!/usr/bin/env bash
# Server chaos smoke: classminerd with fault-injection sites armed on live
# traffic — probabilistic torn/short/delayed/duplicated response frames plus
# a deterministic accept-time connection reset every 7th session, plus lost
# wake-ups (worker events then wait for the reactor's heartbeat) — driven by
# 8 concurrent reconnecting clients. The clients' final reports must be
# byte-identical to a fault-free CLI run: every torn send forces a redial
# and an idempotent resume, and the replayed outcome must carry the same
# bytes. Then a second daemon runs the background integrity scrubber under
# client load: a library indexed from a truncated container (degraded
# entry) must come back clean without anyone asking for a repair.
# tier1.sh runs this against both the plain and TSAN builds.
#
#   scripts/server_chaos.sh [BUILD_DIR]   # default ./build
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CLI="./$BUILD_DIR/examples/classminer"
DAEMON="./$BUILD_DIR/examples/classminerd"
CLIENT="./$BUILD_DIR/examples/classminer-client"
CLIENTS="${CLIENTS:-8}"

WORK="$(mktemp -d)"
DAEMON_PID=""
LOAD_PIDS=()
cleanup() {
  for pid in "${LOAD_PIDS[@]:-}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {  # start_daemon <args...>; sets DAEMON_PID and PORT
  "$DAEMON" "$@" >"$WORK/daemon.out" 2>"$WORK/daemon.err" &
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
}

stop_daemon() {  # SIGTERM + graceful-drain asserts
  kill -TERM "$DAEMON_PID"
  local status=0
  wait "$DAEMON_PID" || status=$?
  DAEMON_PID=""
  if [[ "$status" != 0 ]]; then
    echo "daemon exited $status (expected graceful 0)" >&2
    cat "$WORK/daemon.err" >&2
    exit 1
  fi
  grep -q "0 connection(s) still active" "$WORK/daemon.err" || {
    echo "daemon leaked (hung) connections under chaos:" >&2
    cat "$WORK/daemon.err" >&2
    exit 1
  }
  sed -n 's/^classminerd: /daemon stats: /p' "$WORK/daemon.err"
}

echo "== server chaos ($BUILD_DIR): corpus =="
"$CLI" generate "$WORK/ward_rounds.cmv" --title laparoscopy --seed 11 \
  >/dev/null
"$CLI" mine "$WORK/ward_rounds.cmv" --fast >"$WORK/expected.txt" 2>/dev/null
cat "$WORK/expected.txt" "$WORK/expected.txt" "$WORK/expected.txt" \
  "$WORK/expected.txt" >"$WORK/expected4.txt"

echo "== server chaos: daemon with fault injection armed =="
# Every 10th response-path send tears the frame and hangs up; sends can
# also shorten, stall, or duplicate probabilistically, and every 7th
# accepted connection is reset before the hello. A fifth of the wake-pipe
# bytes are dropped, so those responses ride the reactor's 100 ms
# heartbeat instead of a prompt wake-up. The torn/reset faults
# kill real sessions mid-call, so the clients below must redial and resume
# through their idempotency keys — the deterministic every:N specs
# guarantee the faults actually fire.
start_daemon --port 0 --threads 4 --queue 16 \
  --idle-timeout 5000 --max-errors 8 \
  --chaos "server.wire.send.torn=every:10,server.wire.send.short=p:0.05:11,server.wire.send.delay=p:0.05:13,server.wire.frame.dup=p:0.08:5,server.accept.reset=every:7,server.wake.drop=p:0.2:17"

echo "== server chaos: $CLIENTS reconnecting clients, byte-identity =="
PIDS=()
for i in $(seq 1 "$CLIENTS"); do
  "$CLIENT" --port "$PORT" --user "chaos$i" --clearance 3 --retries 16 \
    --pipeline 4 --repeat 4 mine "$WORK/ward_rounds.cmv" --fast \
    >"$WORK/chaos$i.txt" 2>"$WORK/chaos$i.err" &
  PIDS+=("$!")
done
FAILED=0
for pid in "${PIDS[@]}"; do
  wait "$pid" || FAILED=1
done
if [[ "$FAILED" != 0 ]]; then
  echo "a client exited non-zero under chaos" >&2
  cat "$WORK"/chaos*.err >&2
  exit 1
fi
for i in $(seq 1 "$CLIENTS"); do
  if ! cmp -s "$WORK/expected4.txt" "$WORK/chaos$i.txt"; then
    echo "client $i report differs from the fault-free run" >&2
    diff "$WORK/expected4.txt" "$WORK/chaos$i.txt" >&2 || true
    exit 1
  fi
done
echo "all $CLIENTS chaos clients byte-identical to the fault-free run"

echo "== server chaos: graceful drain with faults still armed =="
stop_daemon
# The byte-identity above is only meaningful if the faults really hit live
# calls: at least one retry must have been answered from the idempotency
# record (hit) or joined to its still-running original.
if grep -q "idempotent 0 hit / 0 joined" "$WORK/daemon.err"; then
  echo "chaos never forced an idempotent resume — faults did not engage" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
fi

echo "== server chaos: scrubber heals a corrupted library under load =="
# A library indexed from a truncated container carries a degraded entry;
# the pristine source lives in the media dir under the entry's name. The
# scrubber must find the rot and re-mine it while clients keep the workers
# busy — nobody asks for the repair.
mkdir -p "$WORK/media"
"$CLI" generate "$WORK/media/laparoscopy.cmv" --title laparoscopy --seed 19 \
  >/dev/null
SIZE="$(stat -c %s "$WORK/media/laparoscopy.cmv" 2>/dev/null ||
  stat -f %z "$WORK/media/laparoscopy.cmv")"
head -c $((SIZE * 3 / 4)) "$WORK/media/laparoscopy.cmv" >"$WORK/damaged.cmv"
"$CLI" index "$WORK/library.cmdb" "$WORK/damaged.cmv" >/dev/null 2>&1
if "$CLI" verify "$WORK/library.cmdb" >/dev/null 2>&1; then
  echo "library should have started dirty" >&2
  exit 1
fi

start_daemon --port 0 --threads 4 --queue 16 --media "$WORK/media" \
  --scrub-db "$WORK/library.cmdb" --scrub-interval 200 --scrub-yield 500

# Client load in the background so the scrubber has traffic to yield to.
for i in 1 2; do
  (
    for _ in $(seq 1 30); do
      "$CLIENT" --port "$PORT" --user "load$i" --clearance 3 --retries 8 \
        mine "$WORK/ward_rounds.cmv" --fast >/dev/null 2>&1 || true
    done
  ) &
  LOAD_PIDS+=("$!")
done

HEALED=0
for _ in $(seq 1 300); do
  if "$CLIENT" --port "$PORT" --user probe --clearance 0 health \
    >"$WORK/health.txt" 2>/dev/null &&
    grep -q "last scrub: clean" "$WORK/health.txt" &&
    grep -q "degraded entries: 0" "$WORK/health.txt"; then
    HEALED=1
    break
  fi
  sleep 0.2
done
if [[ "$HEALED" != 1 ]]; then
  echo "scrubber never healed the library; last health report:" >&2
  cat "$WORK/health.txt" >&2 || true
  cat "$WORK/daemon.err" >&2
  exit 1
fi
echo "health reports a clean scrub under load"
for pid in "${LOAD_PIDS[@]}"; do
  wait "$pid" || true
done
LOAD_PIDS=()

stop_daemon
"$CLI" verify "$WORK/library.cmdb" >/dev/null || {
  echo "library still dirty after the scrubber claimed a repair" >&2
  exit 1
}
grep -q "scrub.*1 repaired" "$WORK/daemon.err" || {
  echo "daemon stats never recorded the scrub repair:" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
}
echo "library verifies clean after the background repair"

echo "== server chaos: scrubber compacts a sharded library under load =="
# A sharded append-log library accumulates dead records as entries are
# re-indexed; with --scrub-compact the daemon's scrubber folds them away
# while clients keep the workers busy. The health report must show the
# compaction happened, and the library must verify clean (and actually be
# compact: a follow-up CLI compact finds nothing to fold).
"$CLI" index "$WORK/shardlib.cmdb" --shards 4 \
  "$WORK/media/laparoscopy.cmv" >/dev/null
for _ in 1 2 3; do
  "$CLI" index "$WORK/shardlib.cmdb" --append "$WORK/ward_rounds.cmv" \
    >/dev/null
done
"$CLI" verify "$WORK/shardlib.cmdb" >/dev/null || {
  echo "sharded library should verify clean before compaction" >&2
  exit 1
}

start_daemon --port 0 --threads 4 --queue 16 --media "$WORK/media" \
  --scrub-db "$WORK/shardlib.cmdb" --scrub-interval 200 --scrub-yield 500 \
  --scrub-compact

for i in 1 2; do
  (
    for _ in $(seq 1 20); do
      "$CLIENT" --port "$PORT" --user "compactload$i" --clearance 3 \
        --retries 8 mine "$WORK/ward_rounds.cmv" --fast >/dev/null 2>&1 ||
        true
    done
  ) &
  LOAD_PIDS+=("$!")
done

COMPACTED=0
for _ in $(seq 1 300); do
  if "$CLIENT" --port "$PORT" --user probe --clearance 0 health \
    >"$WORK/health2.txt" 2>/dev/null &&
    grep -q "scrub compactions: [1-9]" "$WORK/health2.txt" &&
    grep -q "last scrub: clean" "$WORK/health2.txt"; then
    COMPACTED=1
    break
  fi
  sleep 0.2
done
if [[ "$COMPACTED" != 1 ]]; then
  echo "scrubber never compacted the sharded library; last health:" >&2
  cat "$WORK/health2.txt" >&2 || true
  cat "$WORK/daemon.err" >&2
  exit 1
fi
echo "health reports a scrub compaction under load"
for pid in "${LOAD_PIDS[@]}"; do
  wait "$pid" || true
done
LOAD_PIDS=()

stop_daemon
"$CLI" verify "$WORK/shardlib.cmdb" >/dev/null || {
  echo "sharded library dirty after scrub compaction" >&2
  exit 1
}
"$CLI" compact "$WORK/shardlib.cmdb" >"$WORK/compact.txt" || {
  echo "CLI compact failed after scrub compaction" >&2
  cat "$WORK/compact.txt" >&2
  exit 1
}
grep -q "compacted 0 shard(s), dropped 0 dead record(s)" \
  "$WORK/compact.txt" || {
  echo "scrubber left dead records behind:" >&2
  cat "$WORK/compact.txt" >&2
  exit 1
}
echo "sharded library is clean and fully folded"

echo "server chaos OK"
