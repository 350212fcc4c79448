// Micro-benchmarks for the structure-mining stages: group detection,
// classification, scene detection and PCS scene clustering, plus the
// end-to-end MineVideo pipeline at 1..N threads (per-stage wall times from
// the PipelineMetrics registry are reported as counters).

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "core/classminer.h"
#include "media/color.h"
#include "media/draw.h"
#include "structure/content_structure.h"
#include "synth/corpus.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

std::vector<shot::Shot> MakeShots(int count, int hues) {
  std::vector<shot::Shot> shots;
  util::Rng rng(5);
  for (int i = 0; i < count; ++i) {
    const double hue = (i / 6 % hues) * (360.0 / hues);
    media::Image img(48, 36, media::HsvToRgb({hue, 0.7, 0.8}));
    media::AddNoise(&img, 4, &rng);
    shot::Shot s;
    s.index = i;
    s.start_frame = i * 30;
    s.end_frame = (i + 1) * 30 - 1;
    s.rep_frame = s.start_frame + 9;
    s.features = features::ExtractShotFeatures(img);
    shots.push_back(std::move(s));
  }
  return shots;
}

void BM_DetectGroups(benchmark::State& state) {
  const auto shots = MakeShots(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(structure::DetectGroups(shots));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectGroups)->Arg(60)->Arg(240)->Unit(benchmark::kMillisecond);

void BM_FullStructureMining(benchmark::State& state) {
  const auto shots = MakeShots(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto copy = shots;
    benchmark::DoNotOptimize(structure::MineVideoStructure(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullStructureMining)
    ->Arg(60)
    ->Arg(240)
    ->Unit(benchmark::kMillisecond);

void BM_SceneClustering(benchmark::State& state) {
  const auto shots = MakeShots(static_cast<int>(state.range(0)), 6);
  std::vector<structure::Group> groups = structure::DetectGroups(shots);
  structure::ClassifyGroups(shots, &groups);
  const std::vector<structure::Scene> scenes =
      structure::DetectScenes(shots, groups);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        structure::ClusterScenes(shots, groups, scenes));
  }
}
BENCHMARK(BM_SceneClustering)->Arg(120)->Unit(benchmark::kMillisecond);

// PCS clustering with a shared pool: the pairwise centroid matrix and the
// validity index fan out, the merge scan stays serial (bit-identical).
void BM_SceneClusteringThreads(benchmark::State& state) {
  const auto shots = MakeShots(120, 6);
  std::vector<structure::Group> groups = structure::DetectGroups(shots);
  structure::ClassifyGroups(shots, &groups);
  const std::vector<structure::Scene> scenes =
      structure::DetectScenes(shots, groups);
  const int threads = static_cast<int>(state.range(0));
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(structure::ClusterScenes(
        shots, groups, scenes, {}, nullptr, threads > 1 ? &pool : nullptr));
  }
}
BENCHMARK(BM_SceneClusteringThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// End-to-end MineVideo on one synthetic title at a given thread count.
// Per-stage mean wall times land in the bench counters, so a run shows
// both the speedup and where the remaining time goes.
void BM_MineVideoThreads(benchmark::State& state) {
  const synth::GeneratedVideo video =
      synth::GenerateVideo(synth::QuickScript(17));
  core::MiningOptions options;
  options.thread_count = static_cast<int>(state.range(0));
  util::PipelineMetrics accumulated;
  int64_t runs = 0;
  for (auto _ : state) {
    util::StatusOr<core::MiningResult> mined =
        core::MineVideo(video.video, video.audio, options);
    if (!mined.ok()) std::abort();
    core::MiningResult& result = *mined;
    benchmark::DoNotOptimize(result);
    for (const util::StageMetrics& s : result.metrics.stages) {
      bool found = false;
      for (util::StageMetrics& a : accumulated.stages) {
        if (a.name == s.name) {
          a.wall_ms += s.wall_ms;
          found = true;
          break;
        }
      }
      if (!found) accumulated.stages.push_back(s);
    }
    ++runs;
  }
  for (const util::StageMetrics& s : accumulated.stages) {
    state.counters[s.name + "_ms"] =
        benchmark::Counter(s.wall_ms / static_cast<double>(runs));
  }
  state.SetItemsProcessed(runs * video.video.frame_count());
}
BENCHMARK(BM_MineVideoThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

}  // namespace
}  // namespace classminer

BENCHMARK_MAIN();
