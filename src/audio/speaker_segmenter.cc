#include "audio/speaker_segmenter.h"

#include <atomic>
#include <vector>

namespace classminer::audio {

double SpeakerSegmenter::HeuristicMargin(const ClipFeatures& f) {
  // Speech: voiced pitch in the 60-400 Hz band, audible volume, energy
  // concentrated below ~1.7 kHz, and some (but not total) silence.
  double score = 0.0;
  const double pitch_hz = f[6] * 1000.0;
  score += (pitch_hz >= 60.0 && pitch_hz <= 400.0) ? 1.0 : -1.0;
  score += (f[0] > 0.01) ? 0.5 : -1.0;                  // volume mean
  score += (f[10] + f[11] > 0.5) ? 0.5 : -0.5;          // low-band energy
  score += (f[3] < 0.9) ? 0.25 : -0.5;                  // not all silence
  return score;
}

ShotAudioAnalysis SpeakerSegmenter::AnalyzeShot(
    const AudioBuffer& audio, double start_sec, double end_sec,
    int shot_index, const util::ExecutionContext& ctx) const {
  ShotAudioAnalysis out;
  out.shot_index = shot_index;
  const double duration = end_sec - start_sec;
  if (duration < options_.min_shot_seconds) return out;

  const AudioBuffer span = audio.Slice(start_sec, duration);
  const std::vector<AudioBuffer> clips =
      SplitIntoClips(span, options_.clip_seconds);
  if (clips.empty()) return out;
  out.analyzable = true;

  // The representative clip is the first strict maximum of the margin.
  // The heuristic's margin never exceeds kHeuristicMarginCeiling, so once
  // the first clip reaches it no later clip can win: a clip not yet begun
  // is skipped, and only the first is scanned. Clips are claimed in order,
  // so a serial run features one clip and a pool with idle threads starts
  // the rest beside the first. Which clips run never changes the result.
  std::vector<ClipFeatures> features(clips.size());
  std::atomic<bool> settled{false};
  util::ParallelFor(ctx, static_cast<int>(clips.size()), [&](int i) {
    if (i > 0 && settled.load(std::memory_order_relaxed)) return;
    const size_t c = static_cast<size_t>(i);
    features[c] = ComputeClipFeatures(clips[c]);
    if (i == 0 && HeuristicMargin(features[0]) >= kHeuristicMarginCeiling) {
      settled.store(true, std::memory_order_relaxed);
    }
  });
  const size_t featured = settled.load() ? 1 : clips.size();
  double best_margin = -1e18;
  size_t best_clip = 0;
  for (size_t i = 0; i < featured; ++i) {
    const double margin = HeuristicMargin(features[i]);
    if (margin > best_margin) {
      best_margin = margin;
      best_clip = i;
    }
  }
  out.speech_margin = best_margin;
  out.has_speech = best_margin > 0.0;
  out.rep_features = features[best_clip];
  out.mfcc = ComputeMfcc(clips[best_clip]);
  return out;
}

BicResult SpeakerSegmenter::SpeakerChangeDetail(
    const ShotAudioAnalysis& a, const ShotAudioAnalysis& b) const {
  return BicSpeakerChangeTest(a.mfcc, b.mfcc, options_.bic_penalty);
}

bool SpeakerSegmenter::SpeakerChange(const ShotAudioAnalysis& a,
                                     const ShotAudioAnalysis& b) const {
  if (!a.has_speech || !b.has_speech) return false;
  if (a.mfcc.rows() < 8 || b.mfcc.rows() < 8) return false;
  return SpeakerChangeDetail(a, b).speaker_change;
}

}  // namespace classminer::audio
