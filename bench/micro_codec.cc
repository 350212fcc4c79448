// Micro-benchmarks for the CMV codec substrate: DCT, quantised block
// coding, entropy decoding, colour conversion, motion estimation, full
// encode/decode (GOP-parallel at 1/2/4 threads), planned selective decode
// and DC-image extraction (GOP-parallel, strict and salvaging).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "codec/decoder.h"
#include "codec/dct.h"
#include "codec/encoder.h"
#include "codec/motion.h"
#include "codec/quant.h"
#include "media/draw.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/salvage.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

media::Video BenchVideo(int frames, int w, int h) {
  util::Rng rng(99);
  media::Video video("bench", 12.0);
  media::Image base(w, h);
  media::FillGradient(&base, media::Rgb{60, 90, 140}, media::Rgb{20, 30, 50});
  media::FillEllipse(&base, w / 2, h / 2, w / 4, h / 4,
                     media::Rgb{205, 150, 120});
  for (int i = 0; i < frames; ++i) {
    media::Image f = media::Translated(base, i, i / 2);
    media::AddNoise(&f, 3, &rng);
    video.AppendFrame(std::move(f));
  }
  return video;
}

void BM_ForwardDct(benchmark::State& state) {
  util::Rng rng(1);
  codec::Block block{};
  for (double& v : block) v = rng.Uniform(-128.0, 128.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::ForwardDct(block));
  }
}
BENCHMARK(BM_ForwardDct);

void BM_BlockCodeRoundTrip(benchmark::State& state) {
  util::Rng rng(2);
  codec::Block freq{};
  for (double& v : freq) v = rng.Uniform(-60.0, 60.0);
  const codec::QuantizedBlock q =
      codec::Quantize(freq, codec::MakeQuantSteps(8, false));
  for (auto _ : state) {
    codec::BitWriter w;
    codec::EncodeBlock(&w, q, 0);
    const std::vector<uint8_t> bytes = w.Finish();
    codec::BitReader r(bytes);
    codec::QuantizedBlock back{};
    benchmark::DoNotOptimize(codec::DecodeBlock(&r, &back, 0));
  }
}
BENCHMARK(BM_BlockCodeRoundTrip);

// Entropy decoding alone: 256 chained blocks of a natural-image-like
// spectrum (coefficients falling off with frequency) at quality 8, read
// back with DecodeBlock. Items are blocks.
void BM_DecodeBlock(benchmark::State& state) {
  util::Rng rng(4);
  const codec::QuantSteps steps = codec::MakeQuantSteps(8, false);
  constexpr int kBlocks = 256;
  codec::BitWriter w;
  int32_t pred = 0;
  for (int b = 0; b < kBlocks; ++b) {
    codec::Block freq;
    for (int i = 0; i < codec::kBlockPixels; ++i) {
      const int u = i % codec::kBlockSize;
      const int v = i / codec::kBlockSize;
      freq[static_cast<size_t>(i)] =
          rng.Uniform(-400.0, 400.0) / (1.0 + 1.5 * (u + v));
    }
    pred = codec::EncodeBlock(&w, codec::Quantize(freq, steps), pred);
  }
  const std::vector<uint8_t> bytes = w.Finish();
  for (auto _ : state) {
    codec::BitReader r(bytes);
    codec::QuantizedBlock q;
    int32_t dc = 0;
    for (int b = 0; b < kBlocks; ++b) {
      util::StatusOr<int32_t> next = codec::DecodeBlock(&r, &q, dc);
      dc = next.ok() ? *next : 0;
    }
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
  state.SetLabel(util::DispatchLevelName(util::ActiveDispatchLevel()));
}
BENCHMARK(BM_DecodeBlock);

// YCbCr 4:2:0 -> RGB of one 96x72 frame (the synthetic corpus' size).
// Items are pixels.
void BM_ToImage(benchmark::State& state) {
  const media::Video video = BenchVideo(1, 96, 72);
  const codec::Picture pic = codec::FromImage(video.frame(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::ToImage(pic, 96, 72));
  }
  state.SetItemsProcessed(state.iterations() * 96 * 72);
  state.SetLabel(util::DispatchLevelName(util::ActiveDispatchLevel()));
}
BENCHMARK(BM_ToImage);

void BM_MotionEstimation(benchmark::State& state) {
  util::Rng rng(3);
  codec::Plane ref = codec::Plane::Make(96, 72);
  for (int16_t& s : ref.samples) {
    s = static_cast<int16_t>(rng.UniformInt(0, 255));
  }
  const codec::Plane cur = ref;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::EstimateMotion(cur, ref, 32, 32, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_MotionEstimation)->Arg(3)->Arg(7);

void BM_EncodeVideo(benchmark::State& state) {
  const media::Video video = BenchVideo(static_cast<int>(state.range(0)), 96, 72);
  codec::EncoderOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::EncodeVideo(video, opts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeVideo)->Arg(12)->Unit(benchmark::kMillisecond);

// Full decode of a 96-frame, 8-GOP clip (gop_size 12) with its GOPs spread
// over a pool of `threads` (arg); 1 decodes inline with no pool. Wall time
// is the metric, so the rows run on real time.
void BM_DecodeVideo(benchmark::State& state) {
  const media::Video video = BenchVideo(96, 96, 72);
  const codec::CmvFile file = codec::EncodeVideo(video, codec::EncoderOptions());
  const int threads = static_cast<int>(state.range(0));
  const std::unique_ptr<util::ThreadPool> pool =
      threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::DecodeVideo(file, pool.get()));
  }
  state.SetItemsProcessed(state.iterations() * file.frame_count());
  state.counters["threads"] = threads;
  state.counters["gops"] = static_cast<double>(
      codec::CmvFile::DeriveGopIndex(file.frames)->size());
  state.SetLabel(util::DispatchLevelName(util::ActiveDispatchLevel()));
}
BENCHMARK(BM_DecodeVideo)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Rep-frame-style sparse access (one frame in every 24 of a 96-frame,
// 8-GOP clip) through the planned DecodeFrames batch vs paying for a full
// DecodeVideo pass. Args: mode (0 full, 1 selective) and pool threads (1
// decodes inline with no pool). The four wanted frames sit at position 4 of
// GOPs 0, 2, 4 and 6, so the selective batch decodes 4 GOP prefixes of 5
// frames: 20 frames against the full decode's 96.
void BM_SelectiveVsFullDecode(benchmark::State& state) {
  const media::Video video = BenchVideo(96, 96, 72);
  const codec::CmvFile file =
      codec::EncodeVideo(video, codec::EncoderOptions());  // gop_size 12
  const bool selective = state.range(0) != 0;
  const int threads = static_cast<int>(state.range(1));
  const std::unique_ptr<util::ThreadPool> pool =
      threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
  std::vector<int> rep_frames;
  for (int f = 4; f < file.frame_count(); f += 24) rep_frames.push_back(f);
  int64_t frames_decoded = 0;
  for (auto _ : state) {
    if (selective) {
      auto batch = codec::DecodeFrames(file, rep_frames, pool.get());
      frames_decoded += batch.ok() ? batch->frames_decoded : 0;
      benchmark::DoNotOptimize(batch);
    } else {
      auto full = codec::DecodeVideo(file, pool.get());
      benchmark::DoNotOptimize(full);
      frames_decoded += file.frame_count();
    }
  }
  state.SetItemsProcessed(frames_decoded);
  state.counters["threads"] = threads;
  state.counters["frames_decoded_per_iter"] = static_cast<double>(
      frames_decoded / std::max<int64_t>(1, state.iterations()));
  state.SetLabel(util::DispatchLevelName(util::ActiveDispatchLevel()));
}
BENCHMARK(BM_SelectiveVsFullDecode)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// DC images of BM_DecodeVideo's 96-frame, 8-GOP clip, the GOPs spread over
// a pool of `threads` (first arg; 1 decodes inline with no pool). The
// second arg picks the strict decode (0) or the salvaging one (1) that
// degraded mining runs; on this pristine clip both decode every frame.
void BM_DcImageExtraction(benchmark::State& state) {
  const media::Video video = BenchVideo(96, 96, 72);
  const codec::CmvFile file = codec::EncodeVideo(video, codec::EncoderOptions());
  const int threads = static_cast<int>(state.range(0));
  const bool salvage = state.range(1) != 0;
  const std::unique_ptr<util::ThreadPool> pool =
      threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr;
  for (auto _ : state) {
    util::SalvageReport report;
    benchmark::DoNotOptimize(codec::DecodeDcImages(
        file, pool.get(), salvage ? &report : nullptr));
  }
  state.SetItemsProcessed(state.iterations() * file.frame_count());
  state.counters["threads"] = threads;
  state.counters["gops"] = static_cast<double>(
      codec::CmvFile::DeriveGopIndex(file.frames)->size());
  state.SetLabel(util::DispatchLevelName(util::ActiveDispatchLevel()));
}
BENCHMARK(BM_DcImageExtraction)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classminer

BENCHMARK_MAIN();
