#ifndef CLASSMINER_AUDIO_SPEAKER_SEGMENTER_H_
#define CLASSMINER_AUDIO_SPEAKER_SEGMENTER_H_

#include "audio/audio_buffer.h"
#include "audio/bic.h"
#include "audio/features.h"
#include "audio/mfcc.h"
#include "util/exec_context.h"
#include "util/matrix.h"

namespace classminer::audio {

// Per-shot audio analysis (paper Sec. 4.2): the shot's audio is split into
// ~2 s clips; each clip is scored clean-speech vs non-speech by
// HeuristicMargin (the paper trains a GMM here; DESIGN.md §7); the most
// speech-like clip becomes the shot's representative clip, from which MFCCs
// are extracted for the BIC speaker test.
struct ShotAudioAnalysis {
  int shot_index = -1;
  bool analyzable = false;   // shot was at least one clip long
  bool has_speech = false;   // representative clip scored as speech
  double speech_margin = 0.0;
  ClipFeatures rep_features{};
  util::Matrix mfcc;         // rep clip MFCC sequence (n x 14)
};

class SpeakerSegmenter {
 public:
  struct Options {
    double clip_seconds = 2.0;
    // Shots shorter than this are discarded from audio analysis (paper:
    // "a video shot with its length less than 2 seconds is discarded").
    double min_shot_seconds = 2.0;
    // BIC penalty factor lambda. With ~200 MFCC frames per clip the
    // same-speaker likelihood ratio runs up to ~1.4x the lambda=1 penalty
    // (different clips of one voice differ in syllable content), while
    // cross-speaker ratios exceed 4x; 2.0 sits safely between.
    double bic_penalty = 2.0;
  };

  SpeakerSegmenter() : SpeakerSegmenter(Options()) {}
  explicit SpeakerSegmenter(Options options) : options_(options) {}

  // Analyzes the audio of one shot spanning [start_sec, end_sec). The
  // representative clip is the first clip of the largest speech margin.
  // The context's pool features the clips in parallel (independent clip
  // slots, serial best-clip selection; bit-identical to featuring every
  // clip serially). A first clip at kHeuristicMarginCeiling cannot be
  // beaten, so clips not yet begun when it is scored are skipped: a serial
  // run features it alone. Nesting is safe: a caller already parallelising
  // across shots may pass the same context through, and the shared pool
  // interleaves the work.
  ShotAudioAnalysis AnalyzeShot(const AudioBuffer& audio, double start_sec,
                                double end_sec, int shot_index,
                                const util::ExecutionContext& ctx = {}) const;

  // BIC speaker-change decision between two analyzed shots. Shots without
  // usable speech never assert a change.
  bool SpeakerChange(const ShotAudioAnalysis& a,
                     const ShotAudioAnalysis& b) const;

  // Speech margin of one clip: voiced pitch in speech range, audible
  // volume, low-band energy and some (but not total) silence, each rule
  // adding or subtracting a fixed weight. Positive reads as speech.
  static double HeuristicMargin(const ClipFeatures& f);
  // The margin of a clip passing all four rules: no clip scores higher.
  static constexpr double kHeuristicMarginCeiling = 2.25;

  // Detailed test result (for diagnostics / tests).
  BicResult SpeakerChangeDetail(const ShotAudioAnalysis& a,
                                const ShotAudioAnalysis& b) const;

 private:
  Options options_;
};

}  // namespace classminer::audio

#endif  // CLASSMINER_AUDIO_SPEAKER_SEGMENTER_H_
