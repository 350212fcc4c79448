// Micro-benchmarks for the audio substrate: clip features, the pitch
// search, MFCC, one shot's audio analysis and the BIC speaker-change test.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <span>
#include <vector>

#include "audio/bic.h"
#include "audio/features.h"
#include "audio/mfcc.h"
#include "audio/speaker_segmenter.h"
#include "synth/audio_generator.h"
#include "util/cpu.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace classminer {
namespace {

audio::AudioBuffer SpeechClip(int speaker, double seconds) {
  audio::AudioBuffer buf(16000);
  util::Rng rng(1000 + static_cast<uint64_t>(speaker));
  synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(speaker), seconds, &rng);
  return buf;
}

// Pins the dispatch level given as the benchmark's argument; false (and
// the row is skipped) when the host cannot run it.
bool PinLevel(benchmark::State& state) {
  const auto level = static_cast<util::DispatchLevel>(state.range(0));
  if (util::SetDispatchLevelForTest(level)) return true;
  state.SkipWithError("dispatch level not supported on this host");
  return false;
}

// The 14 clip features of one 2 s clip at the dispatch level given as the
// argument.
void BM_ClipFeatures(benchmark::State& state) {
  if (!PinLevel(state)) return;
  const audio::AudioBuffer clip = SpeechClip(1, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::ComputeClipFeatures(clip));
  }
  util::ClearDispatchLevelForTest();
}
BENCHMARK(BM_ClipFeatures)
    ->ArgName("level")
    ->Arg(static_cast<int>(util::DispatchLevel::kScalar))
    ->Arg(static_cast<int>(util::DispatchLevel::kAvx2))
    ->Unit(benchmark::kMillisecond);

// The whole pitch decision (search and voicing gate) of every 30 ms /
// 10 ms frame of one 2 s clip, pinned to the dispatch level given as the
// argument. The frame energies, which the clip features compute alongside
// the spectrum, are taken before timing.
void BM_FramePitch(benchmark::State& state) {
  if (!PinLevel(state)) return;
  const audio::AudioBuffer clip = SpeechClip(1, 2.0);
  const int sr = clip.sample_rate();
  const size_t frame_len = static_cast<size_t>(0.030 * sr);
  const size_t hop = static_cast<size_t>(0.010 * sr);
  const std::vector<float>& s = clip.samples();
  std::vector<std::span<const float>> frames;
  std::vector<double> energies;
  for (size_t start = 0; start + frame_len <= s.size(); start += hop) {
    frames.emplace_back(s.data() + start, frame_len);
    double energy = 0.0;
    for (const float v : frames.back()) energy += static_cast<double>(v) * v;
    energies.push_back(energy);
  }
  audio::internal::PitchSearch search(frame_len, sr);
  for (auto _ : state) {
    for (size_t f = 0; f < frames.size(); ++f) {
      benchmark::DoNotOptimize(search.Pitch(frames[f], energies[f]));
    }
  }
  util::ClearDispatchLevelForTest();
}
BENCHMARK(BM_FramePitch)
    ->ArgName("level")
    ->Arg(static_cast<int>(util::DispatchLevel::kScalar))
    ->Arg(static_cast<int>(util::DispatchLevel::kAvx2))
    ->Unit(benchmark::kMillisecond);

// The MFCC matrix of one 2 s clip at the dispatch level given as the
// argument.
void BM_Mfcc(benchmark::State& state) {
  if (!PinLevel(state)) return;
  const audio::AudioBuffer clip = SpeechClip(2, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::ComputeMfcc(clip));
  }
  util::ClearDispatchLevelForTest();
}
BENCHMARK(BM_Mfcc)
    ->ArgName("level")
    ->Arg(static_cast<int>(util::DispatchLevel::kScalar))
    ->Arg(static_cast<int>(util::DispatchLevel::kAvx2))
    ->Unit(benchmark::kMillisecond);

// One 6 s shot's audio analysis (three 2 s clips, the representative-clip
// search and its MFCC) at the dispatch level given as the first argument.
// The second picks the shot: 0 opens on speech, so the heuristic search
// skips the clips not begun when the first is scored (serially, all of
// them); 1 opens on 2 s of procedure noise, so every clip is featured.
// The third is the pool's thread count (1 = serial). The counter
// first_at_ceiling reports whether the first clip reached the heuristic's
// ceiling.
void BM_AnalyzeShot(benchmark::State& state) {
  if (!PinLevel(state)) return;
  audio::AudioBuffer shot(16000);
  util::Rng rng(77);
  if (state.range(1) == 1) synth::AppendProcedureNoise(&shot, 2.0, &rng);
  synth::AppendSpeech(&shot, synth::MakeSpeakerVoice(4),
                      6.0 - shot.DurationSeconds(), &rng);
  const audio::SpeakerSegmenter segmenter;
  util::ThreadPool pool(static_cast<int>(state.range(2)));
  const util::ExecutionContext ctx(&pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.AnalyzeShot(shot, 0.0, 6.0, 0, ctx));
  }
  state.counters["first_at_ceiling"] =
      audio::SpeakerSegmenter::HeuristicMargin(audio::ComputeClipFeatures(
          shot.Slice(0.0, 2.0))) ==
      audio::SpeakerSegmenter::kHeuristicMarginCeiling;
  util::ClearDispatchLevelForTest();
}
BENCHMARK(BM_AnalyzeShot)
    ->ArgNames({"level", "noise_first", "threads"})
    ->Args({static_cast<int>(util::DispatchLevel::kScalar), 0, 1})
    ->Args({static_cast<int>(util::DispatchLevel::kScalar), 1, 1})
    ->Args({static_cast<int>(util::DispatchLevel::kAvx2), 0, 1})
    ->Args({static_cast<int>(util::DispatchLevel::kAvx2), 1, 1})
    ->Args({static_cast<int>(util::DispatchLevel::kAvx2), 0, 4})
    ->Args({static_cast<int>(util::DispatchLevel::kAvx2), 1, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BicTest(benchmark::State& state) {
  const util::Matrix a = audio::ComputeMfcc(SpeechClip(1, 2.0));
  const util::Matrix b = audio::ComputeMfcc(SpeechClip(2, 2.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(audio::BicSpeakerChangeTest(a, b));
  }
}
BENCHMARK(BM_BicTest)->Unit(benchmark::kMillisecond);

void BM_SpeechSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpeechClip(3, 1.0));
  }
}
BENCHMARK(BM_SpeechSynthesis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace classminer

int main(int argc, char** argv) {
  std::printf("dispatch level: %s\n",
              classminer::util::DispatchLevelName(
                  classminer::util::ActiveDispatchLevel()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
