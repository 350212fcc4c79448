#!/usr/bin/env bash
# CLI smoke over the library format, driving the `classminer` binary end to
# end in a scratch directory:
#   1. a default `index` of a torn container writes a 1-shard CMSL library
#      (CMSM root, no side files) holding a degraded entry; verify flags it,
#      repair re-mines it from the pristine media dir, verify comes back
#      clean;
#   2. a 4-shard library takes an append (one dead record), a compaction, a
#      torn tail on every data-holding shard log, and a repair that must
#      leave it verifying clean;
#   3. `skim` alone (content structure only) prints the same table as a
#      `skim` that exports HTML and a storyboard (full mine), and the HTML
#      names the mined events;
#   4. malformed or out-of-range numeric flags exit with usage (2) instead
#      of aborting.
#
#   scripts/cli_smoke.sh [path/to/classminer]   # default build/examples/classminer
set -euo pipefail

CLI=$(realpath "${1:-build/examples/classminer}")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

expect_usage() {
  local rc=0
  "$CLI" "$@" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "expected usage exit 2 from 'classminer $*', got $rc"
}

echo "== cli smoke: default index is a 1-shard library; degrade/repair/verify =="
mkdir -p "$WORK/media"
"$CLI" generate "$WORK/media/skin_examination.cmv" \
  --title skin_examination --seed 7 >/dev/null
SIZE=$(stat -c%s "$WORK/media/skin_examination.cmv")
head -c $((SIZE * 9 / 10)) "$WORK/media/skin_examination.cmv" \
  >"$WORK/torn.cmv"
"$CLI" index "$WORK/library.cmdb" "$WORK/torn.cmv" >/dev/null 2>&1
[ "$(head -c 4 "$WORK/library.cmdb")" = "CMSM" ] ||
  fail "default index did not write a CMSM root"
[ ! -e "$WORK/library.cmdb.manifest" ] ||
  fail "default index wrote a <db>.manifest side file"
[ ! -e "$WORK/library.cmdb.shard1" ] ||
  fail "default index wrote more than one shard"
if "$CLI" verify "$WORK/library.cmdb" >"$WORK/verify.txt"; then
  fail "verify should have flagged the degraded entry"
fi
grep -q "shards=1 " "$WORK/verify.txt" ||
  fail "verify did not report shards=1: $(cat "$WORK/verify.txt")"
"$CLI" repair "$WORK/library.cmdb" --media "$WORK/media" >/dev/null
"$CLI" verify "$WORK/library.cmdb"

echo "== cli smoke: sharded index/append/compact, torn logs, repair =="
"$CLI" failpoints >"$WORK/failpoints.txt"
grep -qx "index.shard.compact.rename" "$WORK/failpoints.txt" ||
  fail "fail-point catalogue lacks index.shard.compact.rename"
"$CLI" generate "$WORK/shard_smoke.cmv" --title laparoscopy --seed 9 >/dev/null
"$CLI" index "$WORK/shards.cmdb" --shards 4 "$WORK/shard_smoke.cmv" >/dev/null
"$CLI" index "$WORK/shards.cmdb" --append "$WORK/shard_smoke.cmv" >/dev/null
"$CLI" verify "$WORK/shards.cmdb"
"$CLI" compact "$WORK/shards.cmdb" >"$WORK/compact.txt"
grep -q "compacted 1 shard(s), dropped 1 dead record(s)" "$WORK/compact.txt" ||
  fail "compaction did not fold the one dead record"
"$CLI" verify "$WORK/shards.cmdb"
# Tear the tail of every shard log that holds data; the next verify must
# fail, and repair must rebuild a clean library.
for log in "$WORK"/shards.cmdb.shard*; do
  case "$log" in *.prev | *.tmp) continue ;; esac
  SIZE=$(stat -c%s "$log")
  if [ "$SIZE" -gt 64 ]; then
    truncate -s $((SIZE - 7)) "$log"
  fi
done
if "$CLI" verify "$WORK/shards.cmdb" >/dev/null; then
  fail "verify should have flagged the torn shard log"
fi
"$CLI" repair "$WORK/shards.cmdb" --media "$WORK/media" >/dev/null
"$CLI" verify "$WORK/shards.cmdb" >"$WORK/verify.txt"
grep -q "shards=4 " "$WORK/verify.txt" ||
  fail "repair did not keep the shard count"

echo "== cli smoke: skim table without and with exports =="
SKIM_CMV="$WORK/media/skin_examination.cmv"
"$CLI" skim "$SKIM_CMV" --level 3 >"$WORK/skim.txt" 2>/dev/null
"$CLI" skim "$SKIM_CMV" --level 3 --html "$WORK/skim.html" \
  --storyboard "$WORK/skim.ppm" >"$WORK/skim_export.txt" 2>/dev/null
[ -s "$WORK/skim.txt" ] || fail "skim printed no report"
head -n "$(wc -l <"$WORK/skim.txt")" "$WORK/skim_export.txt" |
  cmp -s - "$WORK/skim.txt" ||
  fail "skim report differs when exports are requested"
[ -s "$WORK/skim.ppm" ] || fail "skim wrote no storyboard"
grep -Eq "scene [0-9]+: (presentation|dialog|clinical_operation)" \
  "$WORK/skim.html" || fail "skim HTML names no mined event"

echo "== cli smoke: malformed numeric flags exit 2 =="
expect_usage index "$WORK/bad.cmdb" --shards abc "$WORK/shard_smoke.cmv"
expect_usage index "$WORK/bad.cmdb" --shards 0 "$WORK/shard_smoke.cmv"
expect_usage compact "$WORK/shards.cmdb" --shard 99999999999
expect_usage mine "$WORK/shard_smoke.cmv" --threads 4x
expect_usage generate "$WORK/bad.cmv" --seed -1
expect_usage skim "$WORK/shard_smoke.cmv" --level ""
expect_usage browse --clearance x "$WORK/shard_smoke.cmv"
expect_usage repair "$WORK/shards.cmdb" --threads 1e3
[ ! -e "$WORK/bad.cmdb" ] || fail "a rejected index still wrote a library"

echo "cli smoke OK"
