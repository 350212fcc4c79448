#ifndef CLASSMINER_BENCH_BENCH_COMMON_H_
#define CLASSMINER_BENCH_BENCH_COMMON_H_

// Shared helpers for the paper-reproduction benches: mine the five-title
// synthetic medical corpus once and expose the per-video results.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/classminer.h"
#include "core/metrics.h"
#include "synth/corpus.h"
#include "util/threadpool.h"

namespace classminer::bench {

struct MinedVideo {
  synth::GeneratedVideo input;
  core::MiningResult result;
};

inline std::vector<MinedVideo> MineCorpus(double scale = 1.0,
                                          uint64_t seed = 7,
                                          bool degraded = false) {
  synth::CorpusOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  opts.degraded = degraded;
  std::vector<synth::GeneratedVideo> generated =
      synth::GenerateMedicalCorpus(opts);
  // One pool for the whole corpus: each title mines in turn, fanning its
  // stages and loops out across every thread.
  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  const core::MiningOptions options;
  std::vector<MinedVideo> mined;
  for (synth::GeneratedVideo& g : generated) {
    util::StatusOr<core::MiningResult> result =
        core::MineVideo(g.video, g.audio, options, &pool);
    if (!result.ok()) {
      std::fprintf(stderr, "corpus mining failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    MinedVideo mv;
    mv.result = std::move(*result);
    mv.input = std::move(g);
    std::printf("  mined '%s': %zu shots, %d scenes\n",
                mv.input.video.name().c_str(),
                mv.result.structure.shots.size(),
                mv.result.structure.ActiveSceneCount());
    mined.push_back(std::move(mv));
  }
  return mined;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace classminer::bench

#endif  // CLASSMINER_BENCH_BENCH_COMMON_H_
