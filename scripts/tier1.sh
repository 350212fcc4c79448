#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then a ThreadSanitizer pass
# over the concurrency-sensitive suites and an ASan+UBSan pass over the
# corruption/fault-injection suites (hostile bytes are where memory bugs
# hide).
#
#   scripts/tier1.sh            # build dirs ./build, ./build-tsan, ./build-asan
#   SKIP_TSAN=1 scripts/tier1.sh
#   SKIP_ASAN=1 scripts/tier1.sh
#   SKIP_SCALAR=1 scripts/tier1.sh   # skip the forced-scalar kernel leg
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: standard build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" >/dev/null
(cd build && ctest --output-on-failure -j "$(nproc)")

if [[ "${SKIP_SCALAR:-0}" != "1" ]]; then
  echo "== tier-1: forced-scalar kernels (CLASSMINER_DISABLE_SIMD=1) =="
  # The kernel, codec and mining suites re-run with every SIMD path pinned
  # off, proving the scalar fallbacks carry the pipeline by themselves and
  # that outputs don't depend on the dispatch level. Benches must also
  # compile at both levels (same binaries; dispatch is runtime).
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/kernels_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/audio_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/codec_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/features_test
  # The cues read the colour histogram the dispatched kernel stored in
  # each shot's features.
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/cues_test
  CLASSMINER_DISABLE_SIMD=1 ./build/tests/cmv_pipeline_test
  cmake --build build -j "$(nproc)" --target micro_kernels micro_audio micro_codec \
    micro_features >/dev/null
  CLASSMINER_DISABLE_SIMD=1 ./build/bench/micro_kernels \
    --benchmark_min_time=0.01 >/dev/null
  CLASSMINER_DISABLE_SIMD=1 ./build/bench/micro_audio \
    --benchmark_min_time=0.01 >/dev/null
  # The codec benches at both levels: the sparse IDCT, block writer and
  # colour-conversion kernels dispatch per call.
  ./build/bench/micro_codec --benchmark_min_time=0.01 >/dev/null
  CLASSMINER_DISABLE_SIMD=1 ./build/bench/micro_codec \
    --benchmark_min_time=0.01 >/dev/null
  # The feature benches at both levels: the colour histogram dispatches,
  # and the cue and Tamura rows run every per-frame image kernel.
  ./build/bench/micro_features --benchmark_min_time=0.01 >/dev/null
  CLASSMINER_DISABLE_SIMD=1 ./build/bench/micro_features \
    --benchmark_min_time=0.01 >/dev/null
fi

echo "== tier-1: benchmark of record (perfbench build + serve_cold) =="
# perfbench/ is a standalone CMake project over src/; building and briefly
# running it here makes a library API change that breaks the benchmark of
# record fail tier-1. serve_cold must answer every request correctly.
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j "$(nproc)" \
  --target perfbench perfbench_trace_test >/dev/null
./build-perfbench/perfbench_trace_test
./build-perfbench/perfbench --workload serve_cold --seed 1 --seconds 3 \
  --trace 0 > build-perfbench/serve_cold.out
awk '$1 == "named" && $2 == "failed_frac" {
       seen = 1; print; if ($3 + 0 != 0) bad = 1 }
     END { exit !(seen && !bad) }' build-perfbench/serve_cold.out

echo "== tier-1: server smoke (daemon + concurrent clients, plain) =="
scripts/server_smoke.sh build

echo "== tier-1: server chaos (fault injection + reconnecting clients) =="
scripts/server_chaos.sh build

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tier-1: ThreadSanitizer (concurrency + parallel pipeline) =="
  cmake -B build-tsan -S . -DCLASSMINER_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$(nproc)" --target concurrency_test parallel_pipeline_test pipeline_dag_test failpoint_test codec_test cmv_pipeline_test robustness_test server_test >/dev/null
  ./build-tsan/tests/concurrency_test
  ./build-tsan/tests/parallel_pipeline_test
  ./build-tsan/tests/pipeline_dag_test
  ./build-tsan/tests/failpoint_test
  # The GOP-parallel decodes (full, planned selective and DC, strict and
  # salvaging), alone and under the mining pool (pixel path and --fast
  # path). Degraded fast mines at 2 threads run the salvaging DC decode on
  # the mining pool.
  ./build-tsan/tests/codec_test
  ./build-tsan/tests/cmv_pipeline_test
  ./build-tsan/tests/robustness_test --gtest_filter='DegradedMiningTest.*:SalvageParseTest.BitFlip*'
  # The in-process daemon: the reactor fires deadline tokens that workers
  # poll, and trades frames with them under backpressure. Only the tests
  # that start a daemon: about 3.2 min on a 4-CPU host, against 5.5 min
  # with the ops-layer suites, which start no server threads.
  ./build-tsan/tests/server_test --gtest_filter='ServerTest.*'

  echo "== tier-1: server smoke (TSAN) =="
  # The daemon's reactor and worker threads and the client fan-out all
  # run under ThreadSanitizer; the smoke fails on any reported race.
  cmake --build build-tsan -j "$(nproc)" --target classminerd classminer_client classminer_cli >/dev/null
  scripts/server_smoke.sh build-tsan

  echo "== tier-1: server chaos (TSAN) =="
  # Fault injection under ThreadSanitizer: torn sends, accept resets and
  # the background scrubber all racing live traffic.
  scripts/server_chaos.sh build-tsan
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "== tier-1: ASan+UBSan (corruption corpus + fault injection) =="
  cmake -B build-asan -S . -DCLASSMINER_ASAN=ON >/dev/null
  cmake --build build-asan -j "$(nproc)" --target robustness_test failpoint_test codec_test persist_test >/dev/null
  ./build-asan/tests/robustness_test
  ./build-asan/tests/failpoint_test
  ./build-asan/tests/codec_test
  ./build-asan/tests/persist_test

  echo "== tier-1: mining paths (ASan) =="
  # Both mining heads hand the shared stage tail borrowed representative-
  # image pointers (into a decoded Video or a FrameBatch); a lifetime slip
  # there is a use-after-free here.
  cmake --build build-asan -j "$(nproc)" --target cmv_pipeline_test parallel_pipeline_test >/dev/null
  ./build-asan/tests/cmv_pipeline_test
  ./build-asan/tests/parallel_pipeline_test

  echo "== tier-1: per-frame image kernels (ASan+UBSan) =="
  # The separable morphology reads padded rows and whole-row words, the
  # Tamura kernel reads padded integral rows (the last lane block's spare
  # lanes past the row included) and the labelling a flat stack; an
  # off-by-one in any of them is an out-of-bounds read here.
  cmake --build build-asan -j "$(nproc)" --target cues_test features_test >/dev/null
  ./build-asan/tests/cues_test
  ./build-asan/tests/features_test

  echo "== tier-1: audio frame blocks + util oracles (ASan+UBSan) =="
  # Audio frames go four to a block; a ragged last block pads its spare
  # lanes, and a pad that read past the clip would pass the bit-exact
  # oracles (spare-lane results are dropped) but fail here. The integer
  # pitch kernel reads zero padding past each frame. util_test holds the
  # Hypot and entropy-threshold oracles.
  cmake --build build-asan -j "$(nproc)" --target audio_test util_test >/dev/null
  ./build-asan/tests/audio_test
  ./build-asan/tests/util_test

  echo "== tier-1: arena + kernels (ASan, poisoned-on-reset chunks) =="
  # The arena poisons recycled chunks on Reset, so any use-after-reset in
  # the decoder's double-buffered planes or the kernel scratch shows up as
  # a use-after-poison here rather than silent cross-run reads.
  cmake --build build-asan -j "$(nproc)" --target arena_test kernels_test >/dev/null
  ./build-asan/tests/arena_test
  ./build-asan/tests/kernels_test

  echo "== tier-1: scheduler (ASan, late helpers) =="
  # Loop and stage-run state outlives the call through the helper tasks'
  # shared_ptr; a late helper reading a freed loop body, row slot or stage
  # graph would be a use-after-scope here.
  cmake --build build-asan -j "$(nproc)" --target concurrency_test pipeline_dag_test >/dev/null
  ./build-asan/tests/concurrency_test
  ./build-asan/tests/pipeline_dag_test

  echo "== tier-1: crash-recovery matrix (ASan) =="
  # Crashes injected at every site of a 1-shard full save, with and
  # without a prior generation, must reopen the whole old or new library;
  # torn shard logs must resynchronise; repair must bring verify back to
  # clean. The multi-shard matrix adds the
  # index.shard.append.* / index.shard.open sites: any injected crash must
  # reopen to a consistent pre- or post-operation library, never a torn one.
  cmake --build build-asan -j "$(nproc)" --target recovery_test shard_test >/dev/null
  ./build-asan/tests/recovery_test
  ./build-asan/tests/shard_test
fi

echo "tier-1 OK"
