#ifndef CLASSMINER_AUDIO_FEATURES_H_
#define CLASSMINER_AUDIO_FEATURES_H_

#include <array>
#include <cstdint>
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

// The pitch of one analysis frame, as ComputeClipFeatures decides it: the
// lag in [sample_rate / 500, sample_rate / 60] whose autocorrelation
//   r(lag) = sum over i < n - lag of x[i] * x[i + lag]
// (summed in double, in ascending i) is the first strict maximum, reported
// as sample_rate / lag Hz, or 0 when that maximum is not positive or is
// below a quarter of the frame's energy (unvoiced).
//
// Pitch() returns exactly that, bit for bit, without summing every lag in
// double. It quantises the frame to small integers, takes every lag's
// integer autocorrelation, bounds how far each exact double sum can lie
// from its integer estimate, and runs the exact sums only for lags that
// can still be the maximum (features.cc proves the bound).
class PitchSearch {
 public:
  PitchSearch(size_t frame_len, int sample_rate);

  // `frame` holds frame_len samples; `energy` is their sum of squares in
  // double, summed in any order.
  double Pitch(std::span<const float> frame, double energy);

 private:
  double ExactPitch(std::span<const float> frame, double energy,
                    std::span<const int> lags) const;

  const size_t n_;
  const int sample_rate_;
  const int min_lag_;
  const int max_lag_;
  const bool ok_;
  const int qmax_;
  std::vector<int16_t> q_;   // the quantised frame + kIntAutocorrPadding zeros
  std::vector<int32_t> r_;   // integer autocorrelation per lag
  std::vector<int> lags_;    // lags left for the exact sums
};

// Largest |q| IntAutocorrelation accepts for n-sample frames,
// floor(sqrt((2^31 - 1) / (n + 1))) capped to int16: no int32 partial sum
// of n + 1 products of such values can overflow.
int PitchQmax(size_t n);

// The integer pitch autocorrelation kernel: for every lag in
// [min_lag, max_lag],
//   r[lag - min_lag] = sum over i < n - lag of q[i] * q[i + lag],
// exactly, in int32. `q` holds n values in [-PitchQmax(n), PitchQmax(n)]
// followed by at least kIntAutocorrPadding zeros; `r` holds
// IntAutocorrOutputSize(min_lag, max_lag) slots (the slots past the last
// lag are scratch). Requires 1 <= min_lag <= max_lag < n.
inline constexpr int kIntAutocorrLagBlock = 32;
inline constexpr size_t kIntAutocorrPadding = kIntAutocorrLagBlock;
size_t IntAutocorrOutputSize(int min_lag, int max_lag);

// Dispatches on util::ActiveDispatchLevel(); every path returns the same
// integers.
void IntAutocorrelation(std::span<const int16_t> q, size_t n, int min_lag,
                        int max_lag, std::span<int32_t> r);

// Reference kernel (portable C++).
void IntAutocorrelationScalar(std::span<const int16_t> q, size_t n,
                              int min_lag, int max_lag, std::span<int32_t> r);

// AVX2 kernel (x86-64 only). Callable only when
// IntAutocorrelationAccelAvailable().
bool IntAutocorrelationAccelAvailable();
void IntAutocorrelationAccel(std::span<const int16_t> q, size_t n,
                             int min_lag, int max_lag, std::span<int32_t> r);

}  // namespace internal

}  // namespace classminer::audio

#endif  // CLASSMINER_AUDIO_FEATURES_H_
