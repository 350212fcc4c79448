#ifndef CLASSMINER_AUDIO_FEATURES_H_
#define CLASSMINER_AUDIO_FEATURES_H_

#include <array>
#include <span>
#include <vector>

#include "audio/audio_buffer.h"

namespace classminer::audio {

// 14 clip-level audio features (paper Sec. 4.2, after Liu & Huang [22]),
// computed over ~2 s clips from 30 ms analysis frames with 10 ms hop:
//   0 volume mean (RMS)          7 pitch std (Hz / 1000)
//   1 volume std                 8 spectral centroid mean (norm.)
//   2 volume dynamic range       9 spectral bandwidth mean (norm.)
//   3 silence ratio             10 subband energy ratio 0-630 Hz
//   4 ZCR mean                  11 subband ratio 630-1720 Hz
//   5 ZCR std                   12 subband ratio 1720-4400 Hz
//   6 pitch mean (Hz / 1000)    13 subband ratio 4400 Hz-Nyquist
inline constexpr int kClipFeatureDims = 14;

using ClipFeatures = std::array<double, kClipFeatureDims>;

struct ClipFeatureOptions {
  double frame_seconds = 0.030;
  double hop_seconds = 0.010;
};

// Computes clip features; an empty clip yields all zeros.
ClipFeatures ComputeClipFeatures(const AudioBuffer& clip,
                                 const ClipFeatureOptions& options = {});

// Splits `audio` into adjacent clips of `clip_seconds`; the trailing
// remainder shorter than half a clip is dropped.
std::vector<AudioBuffer> SplitIntoClips(const AudioBuffer& audio,
                                        double clip_seconds = 2.0);

namespace internal {

// The pitch autocorrelation kernel: for every lag in [min_lag, max_lag],
//   r[lag - min_lag] = sum over i < n - lag of x[i] * x[i + lag],
// each lag summed in ascending i. `x` holds the frame's n samples widened
// from float followed by at least kAutocorrPadding zeros; `r` holds
// AutocorrOutputSize(min_lag, max_lag) slots (the slots past the last lag
// are scratch). Requires 1 <= min_lag <= max_lag < n.
//
// The kernels accumulate a block of adjacent lags at once (lanes = lags),
// so each lag is still its own scalar chain in the reference order. Two
// facts make every block exact: a float x float product is exact in
// double, and lanes that run past their lag's last term multiply the zero
// padding, adding a signed zero to a sum that started at +0.0, which
// leaves its bits unchanged.
inline constexpr int kAutocorrLagBlock = 32;
inline constexpr size_t kAutocorrPadding = kAutocorrLagBlock;
size_t AutocorrOutputSize(int min_lag, int max_lag);

// Dispatches on util::ActiveDispatchLevel(); every path is bit-identical.
void Autocorrelation(std::span<const double> x, size_t n, int min_lag,
                     int max_lag, std::span<double> r);

// Reference kernel (portable C++).
void AutocorrelationScalar(std::span<const double> x, size_t n, int min_lag,
                           int max_lag, std::span<double> r);

// AVX2 kernel (x86-64 only). Callable only when
// AutocorrelationAccelAvailable().
bool AutocorrelationAccelAvailable();
void AutocorrelationAccel(std::span<const double> x, size_t n, int min_lag,
                          int max_lag, std::span<double> r);

}  // namespace internal

}  // namespace classminer::audio

#endif  // CLASSMINER_AUDIO_FEATURES_H_
