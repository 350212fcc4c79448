// Micro-benchmarks for the visual feature substrate: histogram, Tamura
// coarseness, StSim, frame differencing, mask morphology and the per-frame
// cue extractor. Run once as-is and once with CLASSMINER_DISABLE_SIMD=1 to
// cover both dispatch levels.

#include <benchmark/benchmark.h>

#include "cues/cue_extractor.h"
#include "features/frame_diff.h"
#include "features/histogram.h"
#include "features/similarity.h"
#include "features/tamura.h"
#include "media/draw.h"
#include "media/morphology.h"
#include "util/rng.h"

namespace classminer {
namespace {

media::Image BenchFrame(int w, int h, uint64_t seed) {
  util::Rng rng(seed);
  media::Image img(w, h);
  media::FillGradient(&img, media::Rgb{80, 100, 140}, media::Rgb{30, 40, 60});
  media::FillEllipse(&img, w / 2, h / 2, w / 4, h / 4,
                     media::Rgb{205, 150, 120});
  media::AddNoise(&img, 5, &rng);
  return img;
}

void BM_ColorHistogram(benchmark::State& state) {
  const media::Image img = BenchFrame(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(0)) * 3 / 4,
                                      1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::ComputeColorHistogram(img));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(img.pixel_count()));
}
BENCHMARK(BM_ColorHistogram)->Arg(96)->Arg(192)->Arg(384);

void BM_TamuraCoarseness(benchmark::State& state) {
  const media::Image img = BenchFrame(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(0)) * 3 / 4,
                                      2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::ComputeTamuraCoarseness(img));
  }
}
BENCHMARK(BM_TamuraCoarseness)->Arg(96)->Arg(192)->Arg(384);

// The mask clean-up each skin/blood pass runs: Open then Close, radius 1,
// on a 96x72 noisy mask (~40 % foreground).
void BM_Morphology(benchmark::State& state) {
  util::Rng rng(7);
  media::GrayImage mask(96, 72);
  for (uint8_t& v : mask.pixels()) v = rng.Next() % 5 < 2 ? 255 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(media::Close(media::Open(mask, 1), 1));
  }
}
BENCHMARK(BM_Morphology);

// Every cue of one natural 96x72 representative frame (special-frame
// statistics, faces, skin and blood regions).
void BM_ExtractFrameCues(benchmark::State& state) {
  const media::Image img = BenchFrame(96, 72, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cues::ExtractFrameCues(img));
  }
}
BENCHMARK(BM_ExtractFrameCues);

void BM_StSim(benchmark::State& state) {
  const features::ShotFeatures a =
      features::ExtractShotFeatures(BenchFrame(96, 72, 3));
  const features::ShotFeatures b =
      features::ExtractShotFeatures(BenchFrame(96, 72, 4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::StSim(a, b));
  }
}
BENCHMARK(BM_StSim);

void BM_FrameDifference(benchmark::State& state) {
  const media::Image a = BenchFrame(96, 72, 5);
  const media::Image b = BenchFrame(96, 72, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::FrameDifference(a, b));
  }
}
BENCHMARK(BM_FrameDifference);

// Whole-video difference series with a pool: per-frame histograms fan out,
// the differencing reduction stays serial (bit-identical to 1 thread).
void BM_FrameDifferenceSeriesThreads(benchmark::State& state) {
  media::Video video("bench", 12.0);
  for (int i = 0; i < 240; ++i) {
    video.AppendFrame(BenchFrame(96, 72, static_cast<uint64_t>(i)));
  }
  const int threads = static_cast<int>(state.range(0));
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::FrameDifferenceSeries(
        video, threads > 1 ? &pool : nullptr));
  }
  state.SetItemsProcessed(state.iterations() * video.frame_count());
}
BENCHMARK(BM_FrameDifferenceSeriesThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classminer

BENCHMARK_MAIN();
